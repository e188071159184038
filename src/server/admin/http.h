#ifndef QEC_SERVER_ADMIN_HTTP_H_
#define QEC_SERVER_ADMIN_HTTP_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "server/net/connection.h"

namespace qec::server::admin {

/// One parsed HTTP/1.1 request head. Every admin route is a GET; request
/// bodies are accepted up to the configured bound and discarded, so
/// misbehaving probes can't wedge the connection.
struct HttpRequest {
  std::string method;   // as sent ("GET", "POST", ...)
  std::string target;   // raw request-target, e.g. "/slowlog?n=8"
  std::string path;     // target up to the first '?'
  std::string query;    // after the '?', "" when absent
  std::string version;  // "HTTP/1.1" or "HTTP/1.0"
  /// (lower-cased key, trimmed value) in source order.
  std::vector<std::pair<std::string, std::string>> headers;
  /// HTTP/1.1 defaults to keep-alive; `Connection: close` (or 1.0 without
  /// `Connection: keep-alive`) turns it off.
  bool keep_alive = true;

  /// Value of header `key` (pass lower-case), or "" when absent.
  std::string_view Header(std::string_view key) const;
  /// Value of `key` in the query string ("" when absent or valueless).
  /// No %-decoding — admin parameters are plain integers.
  std::string_view QueryParam(std::string_view key) const;
};

/// Serializes one response: status line, Content-Type, Content-Length,
/// Connection: keep-alive|close, blank line, body.
std::string RenderResponse(int status, std::string_view content_type,
                           std::string_view body, bool keep_alive);

/// The admin plane's net::Connection::Framer: splits one connection's
/// receive buffer into HTTP/1.1 requests. Each request opens an in-order
/// response slot, which the framer completes with the handler's return
/// value (closing after it unless the request keeps the connection alive).
/// Enforces bounded header and body sizes (431/413), rejects malformed
/// requests (400) and chunked uploads (501); a framing error answers once
/// and drains the connection. A request without keep-alive is the last
/// one parsed.
class HttpFramer {
 public:
  using Handler = std::function<std::string(const HttpRequest&)>;

  HttpFramer(size_t max_header_bytes, size_t max_body_bytes,
             Handler on_request);

  void operator()(net::Connection& connection, std::string& rbuf);

 private:
  size_t max_header_bytes_;
  size_t max_body_bytes_;
  Handler on_request_;
  /// Prefix of rbuf already searched for the head terminator, so a partial
  /// head is not rescanned on the next read.
  size_t scan_pos_ = 0;
  /// Bytes of the pending request body still to arrive and be discarded
  /// before the next head parses.
  size_t body_to_skip_ = 0;
};

}  // namespace qec::server::admin

#endif  // QEC_SERVER_ADMIN_HTTP_H_
