#include "server/admin/http_connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace qec::server::admin {

namespace {

constexpr size_t kMaxBytesPerReadEvent = 256 * 1024;

char ToLowerAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLowerAscii(a[i]) != ToLowerAscii(b[i])) return false;
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string_view HttpRequest::Header(std::string_view key) const {
  for (const auto& [k, v] : headers) {
    if (k == key) return v;
  }
  return {};
}

std::string_view HttpRequest::QueryParam(std::string_view key) const {
  std::string_view q = query;
  while (!q.empty()) {
    size_t amp = q.find('&');
    std::string_view pair = q.substr(0, amp);
    q = amp == std::string_view::npos ? std::string_view{}
                                      : q.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      if (pair == key) return {};
      continue;
    }
    if (pair.substr(0, eq) == key) return pair.substr(eq + 1);
  }
  return {};
}

std::string_view HttpConnection::ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string HttpConnection::RenderResponse(int status,
                                           std::string_view content_type,
                                           std::string_view body,
                                           bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " ";
  out += ReasonPhrase(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  out += "\r\n\r\n";
  out += body;
  return out;
}

HttpConnection::HttpConnection(net::EventLoop* loop, int fd, std::string peer,
                               size_t max_header_bytes, size_t max_body_bytes,
                               Callbacks callbacks)
    : loop_(loop),
      fd_(fd),
      peer_(std::move(peer)),
      max_header_bytes_(max_header_bytes),
      max_body_bytes_(max_body_bytes),
      callbacks_(std::move(callbacks)) {}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0 && !closed_) ::close(fd_);
}

Status HttpConnection::Register() {
  auto self = weak_from_this();
  return loop_->Add(fd_, EPOLLIN, [self](uint32_t events) {
    if (auto conn = self.lock()) conn->HandleEvents(events);
  });
}

void HttpConnection::HandleEvents(uint32_t events) {
  if (closed_) return;
  if (events & EPOLLERR) {
    Close();
    return;
  }
  if (events & EPOLLOUT) {
    TryWrite();
    if (closed_) return;
  }
  if (events & (EPOLLIN | EPOLLHUP)) OnReadable();
}

void HttpConnection::OnReadable() {
  if (draining_) return;
  char buf[16 * 1024];
  size_t read_this_event = 0;
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<size_t>(n));
      read_this_event += static_cast<size_t>(n);
      if (read_this_event >= kMaxBytesPerReadEvent) break;
      continue;
    }
    if (n == 0) {
      peer_eof_ = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    Close();
    return;
  }

  DeliverRequests();
  if (closed_) return;
  if (peer_eof_) {
    draining_ = true;
    MaybeFinish();
  }
}

void HttpConnection::DeliverRequests() {
  size_t consumed = 0;
  while (!closed_ && !draining_) {
    // Finish discarding the previous request's body before the next head.
    if (body_to_skip_ > 0) {
      const size_t available = rbuf_.size() - consumed;
      const size_t skip = std::min(body_to_skip_, available);
      consumed += skip;
      body_to_skip_ -= skip;
      if (body_to_skip_ > 0) break;  // need more bytes
    }

    // Head terminator: CRLFCRLF, with bare-LF tolerance (curl always sends
    // CRLF; tests exercise both).
    size_t head_end = std::string::npos;
    size_t terminator_len = 0;
    const size_t crlf = rbuf_.find("\r\n\r\n", consumed);
    const size_t lf = rbuf_.find("\n\n", consumed);
    if (crlf != std::string::npos && (lf == std::string::npos || crlf <= lf)) {
      head_end = crlf;
      terminator_len = 4;
    } else if (lf != std::string::npos) {
      head_end = lf;
      terminator_len = 2;
    }
    if (head_end == std::string::npos) {
      if (rbuf_.size() - consumed > max_header_bytes_) {
        QEC_COUNTER_INC("admin/http_oversized_headers");
        RejectAndDrain(431, "request head exceeds " +
                                std::to_string(max_header_bytes_) + " bytes");
        consumed = rbuf_.size();
      }
      break;
    }
    if (head_end - consumed > max_header_bytes_) {
      QEC_COUNTER_INC("admin/http_oversized_headers");
      RejectAndDrain(431, "request head exceeds " +
                              std::to_string(max_header_bytes_) + " bytes");
      consumed = rbuf_.size();
      break;
    }

    HttpRequest request;
    if (!ParseHead(consumed, head_end, &request)) {
      consumed = rbuf_.size();
      break;
    }
    consumed = head_end + terminator_len;

    if (!request.Header("transfer-encoding").empty()) {
      RejectAndDrain(501, "chunked request bodies are not supported");
      consumed = rbuf_.size();
      break;
    }
    const std::string_view content_length = request.Header("content-length");
    if (!content_length.empty()) {
      uint64_t length = 0;
      if (!ParseSize(content_length, &length)) {
        RejectAndDrain(400, "malformed Content-Length");
        consumed = rbuf_.size();
        break;
      }
      if (length > max_body_bytes_) {
        QEC_COUNTER_INC("admin/http_oversized_bodies");
        RejectAndDrain(413, "request body exceeds " +
                                std::to_string(max_body_bytes_) + " bytes");
        consumed = rbuf_.size();
        break;
      }
      body_to_skip_ = static_cast<size_t>(length);
    }

    QEC_COUNTER_INC("admin/http_requests");
    const uint64_t slot = OpenSlot();
    const bool close_requested = !request.keep_alive;
    if (callbacks_.on_request) callbacks_.on_request(*this, request, slot);
    if (close_requested) {
      // Nothing after this request will be answered; stop parsing. The
      // response's close_after flag (set by the router from
      // request.keep_alive) tears the connection down once flushed.
      break;
    }
  }
  if (consumed > 0) rbuf_.erase(0, consumed);
}

bool HttpConnection::ParseHead(size_t head_start, size_t head_end,
                               HttpRequest* out) {
  const std::string_view head(rbuf_.data() + head_start,
                              head_end - head_start);
  // Request line.
  size_t line_end = head.find('\n');
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1 || sp2 + 1 >= request_line.size()) {
    QEC_COUNTER_INC("admin/http_parse_errors");
    RejectAndDrain(400, "malformed request line");
    return false;
  }
  out->method = std::string(request_line.substr(0, sp1));
  out->target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  out->version = std::string(request_line.substr(sp2 + 1));
  if (out->version != "HTTP/1.1" && out->version != "HTTP/1.0") {
    QEC_COUNTER_INC("admin/http_parse_errors");
    RejectAndDrain(400, "unsupported HTTP version '" + out->version + "'");
    return false;
  }
  const size_t question = out->target.find('?');
  out->path = out->target.substr(0, question);
  out->query =
      question == std::string::npos ? "" : out->target.substr(question + 1);

  // Header lines.
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 1;
  while (pos < head.size()) {
    size_t end = head.find('\n', pos);
    if (end == std::string_view::npos) end = head.size();
    std::string_view line = head.substr(pos, end - pos);
    pos = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      QEC_COUNTER_INC("admin/http_parse_errors");
      RejectAndDrain(400, "malformed header line");
      return false;
    }
    std::string key(line.substr(0, colon));
    for (char& c : key) c = ToLowerAscii(c);
    out->headers.emplace_back(std::move(key),
                              std::string(Trim(line.substr(colon + 1))));
  }

  const std::string_view connection = out->Header("connection");
  if (out->version == "HTTP/1.0") {
    out->keep_alive = EqualsIgnoreCase(connection, "keep-alive");
  } else {
    out->keep_alive = !EqualsIgnoreCase(connection, "close");
  }
  return true;
}

void HttpConnection::RejectAndDrain(int status, std::string_view message) {
  const uint64_t slot = OpenSlot();
  std::string body(message);
  body += '\n';
  CompleteSlot(slot,
               RenderResponse(status, "text/plain; charset=utf-8", body,
                              /*keep_alive=*/false),
               /*close_after=*/true);
  StartDrain();
}

uint64_t HttpConnection::OpenSlot() {
  slots_.emplace_back();
  return next_slot_++;
}

void HttpConnection::CompleteSlot(uint64_t slot, std::string response_bytes,
                                  bool close_after) {
  if (closed_) return;
  if (slot < base_slot_) return;
  const size_t index = static_cast<size_t>(slot - base_slot_);
  QEC_CHECK_LT(index, slots_.size());
  slots_[index].done = true;
  slots_[index].close_after = close_after;
  slots_[index].bytes = std::move(response_bytes);
  FlushCompleted();
}

void HttpConnection::FlushCompleted() {
  while (!slots_.empty() && slots_.front().done) {
    wbuf_ += slots_.front().bytes;
    if (slots_.front().close_after) close_when_flushed_ = true;
    slots_.pop_front();
    ++base_slot_;
    if (close_when_flushed_) {
      // Responses past a close are undeliverable by contract; drop them.
      slots_.clear();
      draining_ = true;
      break;
    }
  }
  if (write_pos_ < wbuf_.size()) ScheduleFlush();
}

void HttpConnection::ScheduleFlush() {
  if (flush_scheduled_ || want_write_) return;
  flush_scheduled_ = true;
  auto self = weak_from_this();
  loop_->Post([self] {
    if (auto conn = self.lock()) {
      conn->flush_scheduled_ = false;
      if (!conn->closed_) conn->TryWrite();
    }
  });
}

void HttpConnection::TryWrite() {
  while (write_pos_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + write_pos_,
                             wbuf_.size() - write_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      write_pos_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateWriteInterest(true);
      return;
    }
    Close();
    return;
  }
  wbuf_.clear();
  write_pos_ = 0;
  UpdateWriteInterest(false);
  if (close_when_flushed_ && slots_.empty()) {
    Close();
    return;
  }
  MaybeFinish();
}

void HttpConnection::UpdateWriteInterest(bool want_write) {
  if (want_write == want_write_ || closed_) return;
  want_write_ = want_write;
  uint32_t events = draining_ ? 0u : static_cast<uint32_t>(EPOLLIN);
  if (want_write) events |= EPOLLOUT;
  loop_->Modify(fd_, events);
}

void HttpConnection::StartDrain() {
  if (closed_ || draining_) return;
  draining_ = true;
  const uint32_t events = want_write_ ? static_cast<uint32_t>(EPOLLOUT) : 0u;
  loop_->Modify(fd_, events);
  MaybeFinish();
}

bool HttpConnection::MaybeFinish() {
  if (closed_) return true;
  if (!draining_) return false;
  if (!idle()) return false;
  Close();
  return true;
}

void HttpConnection::Close() {
  if (closed_) return;
  closed_ = true;
  loop_->Remove(fd_);
  ::close(fd_);
  slots_.clear();
  wbuf_.clear();
  write_pos_ = 0;
  if (callbacks_.on_closed) callbacks_.on_closed(*this);
}

}  // namespace qec::server::admin
