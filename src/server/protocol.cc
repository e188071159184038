#include "server/protocol.h"

#include <cctype>
#include <cmath>
#include <vector>

#include "common/string_util.h"
#include "obs/json.h"

namespace qec::server {

namespace {

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

bool ParseBool(const std::string& text, bool* out) {
  if (text == "0" || text == "false") {
    *out = false;
    return true;
  }
  if (text == "1" || text == "true") {
    *out = true;
    return true;
  }
  return false;
}

Status BadOption(const std::string& token) {
  return Status::InvalidArgument("malformed option '" + token + "'");
}

// FNV-1a, folding raw bytes of each field.
struct Fingerprinter {
  uint64_t h = 1469598103934665603ULL;

  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void D(double v) { Bytes(&v, sizeof(v)); }
  void B(bool v) { U64(v ? 1 : 0); }
};

}  // namespace

Result<ServeRequest> ParseRequestLine(std::string_view line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Status::InvalidArgument("empty request line");

  ServeRequest request;
  const std::string verb = AsciiLower(tokens[0]);
  if (verb == "ping") {
    request.verb = ServeRequest::Verb::kPing;
    return request;
  }
  if (verb == "stats") {
    request.verb = ServeRequest::Verb::kStats;
    return request;
  }
  if (verb != "expand" && verb != "explain") {
    return Status::InvalidArgument("unknown verb '" + tokens[0] + "'");
  }
  request.verb = verb == "expand" ? ServeRequest::Verb::kExpand
                                  : ServeRequest::Verb::kExplain;

  std::vector<std::string> query_words;
  bool in_options = true;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (in_options && token == "--") {
      in_options = false;
      continue;
    }
    const size_t eq = token.find('=');
    if (!in_options || eq == std::string::npos || eq == 0) {
      in_options = false;  // First query word ends option parsing for good.
      query_words.push_back(token);
      continue;
    }
    const std::string key = AsciiLower(token.substr(0, eq));
    const std::string value = token.substr(eq + 1);
    uint64_t n = 0;
    bool b = false;
    if (key == "k") {
      if (!ParseSize(value, &n) || n == 0) return BadOption(token);
      request.max_clusters = static_cast<size_t>(n);
    } else if (key == "algo") {
      if (value == "iskr") {
        request.algorithm = core::ExpansionAlgorithm::kIskr;
      } else if (value == "pebc") {
        request.algorithm = core::ExpansionAlgorithm::kPebc;
      } else if (value == "fmeasure") {
        request.algorithm = core::ExpansionAlgorithm::kFMeasure;
      } else {
        return BadOption(token);
      }
    } else if (key == "topk") {
      if (!ParseSize(value, &n)) return BadOption(token);
      request.top_k_results = static_cast<size_t>(n);
    } else if (key == "minimize") {
      if (!ParseBool(value, &b)) return BadOption(token);
      request.minimize_queries = b;
    } else if (key == "weights") {
      if (!ParseBool(value, &b)) return BadOption(token);
      request.use_ranking_weights = b;
    } else if (key == "threads") {
      if (!ParseSize(value, &n)) return BadOption(token);
      request.num_threads = static_cast<size_t>(n);
    } else if (key == "deadline_ms") {
      if (!ParseSize(value, &n)) return BadOption(token);
      request.deadline_ms = n;
    } else if (key == "trace") {
      if (!ParseTraceIdHex(value, &request.trace_id)) return BadOption(token);
    } else {
      return Status::InvalidArgument("unknown option '" + key + "'");
    }
  }
  if (query_words.empty()) {
    return Status::InvalidArgument(
        request.verb == ServeRequest::Verb::kExplain
            ? "EXPLAIN needs query words"
            : "EXPAND needs query words");
  }
  request.query = Join(query_words, " ");
  return request;
}

std::string NormalizeQuery(std::string_view query) {
  std::string out;
  out.reserve(query.size());
  bool pending_space = false;
  for (char c : query) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

uint64_t OptionsFingerprint(const core::QueryExpanderOptions& options) {
  Fingerprinter fp;
  fp.U64(options.top_k_results);
  fp.U64(options.max_clusters);
  fp.B(options.use_ranking_weights);
  fp.U64(static_cast<uint64_t>(options.algorithm));
  fp.U64(static_cast<uint64_t>(options.retrieval));
  fp.U64(static_cast<uint64_t>(options.clustering));
  fp.U64(options.interleave_rounds);
  fp.B(options.minimize_queries);
  // num_threads, memoize_set_algebra, and explain_terms are deliberately
  // excluded: they change how an expansion is computed (or what diagnostics
  // ride along), never the queries it returns. Explain requests bypass the
  // cache anyway — cached outcomes carry no per-term rows.
  fp.D(options.candidates.fraction);
  fp.U64(options.candidates.max_candidates);
  fp.B(options.candidates.drop_universal_terms);
  fp.U64(options.iskr.max_iterations);
  fp.B(options.iskr.allow_removal);
  fp.U64(options.pebc.num_segments);
  fp.U64(options.pebc.num_iterations);
  fp.U64(static_cast<uint64_t>(options.pebc.strategy));
  fp.U64(options.pebc.seed);
  fp.U64(options.fmeasure.max_iterations);
  fp.B(options.fmeasure.allow_removal);
  fp.U64(options.kmeans.k);
  fp.U64(options.kmeans.max_iterations);
  fp.U64(options.kmeans.seed);
  fp.B(options.kmeans.auto_k);
  return fp.h;
}

std::string ExpansionCacheKey(std::string_view normalized_query,
                              size_t max_clusters,
                              core::ExpansionAlgorithm algorithm,
                              uint64_t options_fingerprint) {
  std::string key(normalized_query);
  key.push_back('\x1f');  // Unit separator: cannot appear in a token.
  key += std::to_string(max_clusters);
  key.push_back('\x1f');
  key += std::to_string(static_cast<int>(algorithm));
  key.push_back('\x1f');
  key += std::to_string(options_fingerprint);
  return key;
}

namespace {

/// Appends a millisecond timing as fixed-point with 0.1us resolution
/// ("1.6910"). The wire carries human-scale diagnostics — exact
/// nanoseconds live in the stage histograms — and integer formatting is
/// ~5x cheaper than snprintf("%.17g"), which matters at one render per
/// request on the hot path.
void AppendMillis(std::string* out, double ms) {
  if (!std::isfinite(ms) || ms < 0.0 || ms >= 1e13) {
    *out += obs::json::NumberToString(ms);
    return;
  }
  const uint64_t tenth_us = static_cast<uint64_t>(ms * 1e4 + 0.5);
  *out += std::to_string(tenth_us / 10000);
  const unsigned frac = static_cast<unsigned>(tenth_us % 10000);
  const char digits[4] = {static_cast<char>('0' + frac / 1000),
                          static_cast<char>('0' + (frac / 100) % 10),
                          static_cast<char>('0' + (frac / 10) % 10),
                          static_cast<char>('0' + frac % 10)};
  out->push_back('.');
  out->append(digits, 4);
}

}  // namespace

std::string ResponseToJsonLine(const ServeResponse& response) {
  using obs::json::NumberToString;
  using obs::json::Quote;
  std::string out = "{";
  if (!response.status.ok()) {
    out += "\"status\":\"error\",\"code\":";
    out += Quote(StatusCodeName(response.status.code()));
    if (response.trace_id != 0) {
      out += ",\"trace_id\":" + Quote(TraceIdToHex(response.trace_id));
    }
    out += ",\"message\":";
    out += Quote(response.status.message());
    out += "}";
    return out;
  }
  // Volatile, per-request fields first; everything derived from the outcome
  // lives in the tail so cached responses splice a pre-rendered string.
  // This prefix renders once per request on the hot path: append piecewise
  // (no operator+ temporaries) and reuse pre-quoted stage keys.
  static const std::vector<std::string> kStageKeys = [] {
    std::vector<std::string> keys;
    for (size_t s = 0; s < kNumStages; ++s) {
      keys.push_back(std::string(s > 0 ? "," : "") +
                     Quote(std::string(StageName(static_cast<Stage>(s)))) +
                     ":");
    }
    return keys;
  }();
  out.reserve(224 + response.rendered_tail.size());
  out += "\"status\":\"ok\"";
  if (response.trace_id != 0) {
    out += ",\"trace_id\":\"";
    out += TraceIdToHex(response.trace_id);
    out += '"';
  }
  out += ",\"cached\":";
  out += response.from_cache ? "true" : "false";
  out += ",\"queue_ms\":";
  AppendMillis(&out, response.queue_seconds * 1e3);
  out += ",\"total_ms\":";
  AppendMillis(&out, response.total_seconds * 1e3);
  out += ",\"stages_ms\":{";
  for (size_t s = 0; s < kNumStages; ++s) {
    out += kStageKeys[s];
    AppendMillis(&out, static_cast<double>(response.stages.ns[s]) / 1e6);
  }
  out += "}";
  if (!response.rendered_tail.empty()) {
    out += response.rendered_tail;
  } else {
    out += RenderOutcomeTail(response.outcome);
  }
  return out;
}

std::string RenderOutcomeTail(const core::ExpansionOutcome& o) {
  using obs::json::NumberToString;
  std::string out;
  out += ",\"clusters\":" + std::to_string(o.num_clusters);
  out += ",\"results_used\":" + std::to_string(o.num_results_used);
  out += ",\"set_score\":" + NumberToString(o.set_score);
  out += ",\"queries\":[";
  for (size_t i = 0; i < o.queries.size(); ++i) {
    if (i > 0) out += ",";
    AppendQueryFields(&out, o.queries[i]);
    out += "}";
  }
  out += "]}";
  return out;
}

void AppendQueryFields(std::string* out, const core::ExpandedQuery& q) {
  using obs::json::NumberToString;
  using obs::json::Quote;
  *out += "{\"keywords\":[";
  for (size_t k = 0; k < q.keywords.size(); ++k) {
    if (k > 0) *out += ",";
    *out += Quote(q.keywords[k]);
  }
  *out += "],\"cluster_size\":" + std::to_string(q.cluster_size);
  *out += ",\"precision\":" + NumberToString(q.quality.precision);
  *out += ",\"recall\":" + NumberToString(q.quality.recall);
  *out += ",\"f_measure\":" + NumberToString(q.quality.f_measure);
}

}  // namespace qec::server
