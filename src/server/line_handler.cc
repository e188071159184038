#include "server/line_handler.h"

#include <utility>

#include "common/string_util.h"
#include "server/protocol.h"

namespace qec::server {

void LineHandler::Handle(std::string_view line, Responder& responder) {
  if (TrimWhitespace(line).empty()) return;
  const uint64_t slot = responder.Open();

  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    observe_(Event::kParseError);
    ServeResponse bad;
    bad.status = parsed.status();
    responder.Complete(slot, ResponseToJsonLine(bad));
    return;
  }
  if (IsImmediateVerb(parsed->verb)) {
    Flush();
    observe_(Event::kControl);
    responder.Complete(slot, server_->ControlResponse(*parsed));
    return;
  }
  observe_(Event::kQueued);
  batch_.push_back({*std::move(parsed), responder.CompleteLater(slot)});
}

void LineHandler::Flush() {
  if (batch_.empty()) return;
  observe_(Event::kBatch);
  server_->SubmitBatch(std::move(batch_));
  batch_.clear();
}

}  // namespace qec::server
