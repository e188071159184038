#include "server/admin/http.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace qec::server::admin {

namespace {

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

std::string_view ReasonPhrase(int status) {
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

/// Parses one request head (terminator excluded). On a malformed head
/// returns false with the reason in `error`.
bool ParseHead(std::string_view head, HttpRequest* out, std::string* error) {
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
    *error = "malformed request line";
    return false;
  }
  out->method = std::string(request_line.substr(0, sp1));
  out->target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  out->version = std::string(request_line.substr(sp2 + 1));
  if (out->version != "HTTP/1.1" && out->version != "HTTP/1.0") {
    *error = "unsupported HTTP version '" + out->version + "'";
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
      *error = "malformed header line";
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

/// Answers `status` once, closes after it flushes, and stops reading:
/// framing errors poison the stream.
void RejectAndDrain(net::Connection& connection, int status,
                    std::string_view message) {
  std::string body(message);
  body += '\n';
  const uint64_t slot = connection.OpenSlot();
  connection.CompleteSlot(slot,
                          RenderResponse(status, "text/plain; charset=utf-8",
                                         body, /*keep_alive=*/false),
                          /*close_after=*/true);
  connection.StartDrain();
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

std::string RenderResponse(int status, std::string_view content_type,
                           std::string_view body, bool keep_alive) {
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

HttpFramer::HttpFramer(size_t max_header_bytes, size_t max_body_bytes,
                       Handler on_request)
    : max_header_bytes_(max_header_bytes),
      max_body_bytes_(max_body_bytes),
      on_request_(std::move(on_request)) {}

void HttpFramer::operator()(net::Connection& connection, std::string& rbuf) {
  // Framing errors answer once and drain: nothing after them is read.
  const auto reject = [&](int status, std::string_view message) {
    RejectAndDrain(connection, status, message);
    rbuf.clear();
    scan_pos_ = 0;
  };
  size_t consumed = 0;
  while (!connection.closed() && !connection.draining()) {
    // Finish discarding the previous request's body before the next head.
    const size_t skip = std::min(body_to_skip_, rbuf.size() - consumed);
    consumed += skip;
    body_to_skip_ -= skip;
    scan_pos_ = std::max(scan_pos_, consumed);
    if (body_to_skip_ > 0) break;  // need more bytes

    // Head terminator: CRLFCRLF, with bare-LF tolerance (curl always sends
    // CRLF; tests exercise both).
    size_t head_end = std::string::npos;
    size_t terminator_len = 0;
    const size_t crlf = rbuf.find("\r\n\r\n", scan_pos_);
    const size_t lf = rbuf.find("\n\n", scan_pos_);
    if (crlf != std::string::npos && (lf == std::string::npos || crlf <= lf)) {
      head_end = crlf;
      terminator_len = 4;
    } else if (lf != std::string::npos) {
      head_end = lf;
      terminator_len = 2;
    }
    const size_t head_bytes =
        (head_end == std::string::npos ? rbuf.size() : head_end) - consumed;
    if (head_bytes > max_header_bytes_) {
      QEC_COUNTER_INC("admin/http_oversized_headers");
      reject(431, "request head exceeds " + std::to_string(max_header_bytes_) +
                      " bytes");
      return;
    }
    if (head_end == std::string::npos) {
      // Resume the search next read; a terminator may straddle the two.
      scan_pos_ = rbuf.size() - std::min<size_t>(rbuf.size() - consumed, 3);
      break;
    }

    HttpRequest request;
    std::string error;
    if (!ParseHead(std::string_view(rbuf).substr(consumed, head_end - consumed),
                   &request, &error)) {
      QEC_COUNTER_INC("admin/http_parse_errors");
      reject(400, error);
      return;
    }
    consumed = head_end + terminator_len;
    scan_pos_ = consumed;

    if (!request.Header("transfer-encoding").empty()) {
      reject(501, "chunked request bodies are not supported");
      return;
    }
    const std::string_view content_length = request.Header("content-length");
    if (!content_length.empty()) {
      uint64_t length = 0;
      if (!ParseSize(content_length, &length)) {
        reject(400, "malformed Content-Length");
        return;
      }
      if (length > max_body_bytes_) {
        QEC_COUNTER_INC("admin/http_oversized_bodies");
        reject(413, "request body exceeds " + std::to_string(max_body_bytes_) +
                        " bytes");
        return;
      }
      body_to_skip_ = static_cast<size_t>(length);
    }

    QEC_COUNTER_INC("admin/http_requests");
    const uint64_t slot = connection.OpenSlot();
    // Nothing after a request without keep-alive is answered; close_after
    // tears the connection down once its response flushes.
    connection.CompleteSlot(slot, on_request_(request),
                            /*close_after=*/!request.keep_alive);
    if (!request.keep_alive) break;
  }
  rbuf.erase(0, consumed);
  scan_pos_ -= consumed;
}

}  // namespace qec::server::admin
