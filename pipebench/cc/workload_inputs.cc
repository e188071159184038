#include "workload_inputs.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/random.h"
#include "datagen/workload.h"

namespace pipebench {

namespace {

// Tags keep the sample, its order and the Zipf draws independent streams
// although they share the run's seed.
constexpr uint64_t kSampleTag = 0x73686f7073616d70ULL;
constexpr uint64_t kOrderTag = 0x73686f706f726472ULL;
constexpr uint64_t kZipfTag = 0x7a69706673747265ULL;
// Seed of the fixed popularity order of the serving queries.
constexpr uint64_t kRankOrderSeed = 20110829;

constexpr size_t kStratum = 8;
// Clustering cost grows with the square of the result count, so the most
// frequent terms set the tail latency and much of the mean. They are
// always sampled, which keeps p99 and throughput from moving with the
// seed.
constexpr size_t kKeptHead = 2 * kStratum;
constexpr size_t kBackgroundQueries = 1500;
constexpr size_t kPairQueries = 1000;

std::string TopicTerm(size_t cluster, size_t j) {
  std::string term = "c";
  term += std::to_string(cluster);
  term += 't';
  term += std::to_string(j);
  return term;
}

std::string BackgroundTerm(size_t i) {
  std::string term = "w";
  term += std::to_string(i);
  return term;
}

}  // namespace

qec::datagen::ShoppingOptions PaperScaleShopping() {
  qec::datagen::ShoppingOptions options;
  options.products_per_family = 30;
  return options;
}

std::vector<std::string> DfBandTerms(const qec::index::InvertedIndex& index,
                                     size_t min_df, size_t max_df) {
  const qec::text::Analyzer& analyzer = index.corpus().analyzer();
  const qec::text::Vocabulary& vocab = analyzer.vocabulary();
  struct Term {
    size_t df;
    std::string text;
  };
  std::vector<Term> terms;
  for (qec::TermId t = 0; t < vocab.size(); ++t) {
    const size_t df = index.DocumentFrequency(t);
    if (df < min_df || df > max_df) continue;
    std::string text(vocab.TermString(t));
    const std::vector<qec::TermId> analyzed = analyzer.AnalyzeReadOnly(text);
    if (analyzed.size() != 1 || analyzed[0] != t) continue;
    terms.push_back({df, std::move(text)});
  }
  std::sort(terms.begin(), terms.end(), [](const Term& a, const Term& b) {
    return a.df != b.df ? a.df > b.df : a.text < b.text;
  });
  std::vector<std::string> out;
  out.reserve(terms.size());
  for (Term& t : terms) out.push_back(std::move(t.text));
  return out;
}

std::vector<NamedQuery> ShoppingQuerySet(
    const qec::index::InvertedIndex& index, uint64_t seed, bool sample) {
  std::vector<NamedQuery> queries;
  std::set<std::string> table_texts;
  for (const auto& q : qec::datagen::ShoppingQueries()) {
    queries.push_back({q.id, q.text});
    table_texts.insert(q.text);
  }
  std::vector<std::string> band =
      DfBandTerms(index, kMinSampleDf, kMaxSampleDf);
  std::erase_if(band, [&](const std::string& t) {
    return table_texts.count(t) != 0;
  });
  qec::Rng pick(seed ^ kSampleTag);
  for (size_t start = 0; start < band.size(); start += kStratum) {
    const size_t end = std::min(start + kStratum, band.size());
    // The heaviest strata and a partial last stratum are kept whole.
    const size_t drop =
        sample && start >= kKeptHead && end - start == kStratum
            ? start + static_cast<size_t>(pick.UniformInt(kStratum))
            : band.size();
    for (size_t i = start; i < end; ++i) {
      if (i != drop) queries.push_back({band[i], band[i]});
    }
  }
  qec::Rng order(seed ^ kOrderTag);
  order.Shuffle(queries);
  return queries;
}

std::vector<std::string> ClusteredQueryUniverse(
    const qec::index::InvertedIndex& index) {
  const qec::text::Analyzer& analyzer = index.corpus().analyzer();
  const qec::text::Vocabulary& vocab = analyzer.vocabulary();
  auto retrieves = [&](const std::string& text, size_t terms) {
    const std::vector<qec::TermId> ids = analyzer.AnalyzeReadOnly(text);
    return ids.size() == terms && !index.Search(ids, 1).empty();
  };
  auto known = [&](const std::string& term) {
    return vocab.Lookup(term) != qec::kInvalidTermId;
  };

  // The generator names topic terms c<cluster>t<j> and background terms
  // w<i>.
  std::vector<std::string> topics;
  for (size_t c = 0; known(TopicTerm(c, 0)); ++c) {
    for (size_t j = 0; known(TopicTerm(c, j)); ++j) {
      if (retrieves(TopicTerm(c, j), 1)) topics.push_back(TopicTerm(c, j));
    }
  }
  std::vector<std::string> background;
  for (size_t i = 0; known(BackgroundTerm(i)); ++i) {
    background.push_back(BackgroundTerm(i));
  }

  std::vector<std::string> queries = topics;
  for (size_t i = 0; i < background.size() && i < kBackgroundQueries; ++i) {
    if (retrieves(background[i], 1)) queries.push_back(background[i]);
  }
  // Topic x background pairs on co-prime strides; most retrieve one or
  // two documents, the rest are skipped.
  size_t pairs = 0;
  for (size_t i = 0; !topics.empty() && !background.empty() &&
                     pairs < kPairQueries && i < 20 * kPairQueries;
       ++i) {
    std::string pair = topics[(i * 7) % topics.size()];
    pair += ' ';
    pair += background[(i * 7919 + 13) % background.size()];
    if (retrieves(pair, 2)) {
      queries.push_back(pair);
      ++pairs;
    }
  }
  qec::Rng order(kRankOrderSeed);
  order.Shuffle(queries);
  return queries;
}

std::vector<StreamEntry> ZipfStream(size_t num_queries, size_t count,
                                    double exponent, double explain_share,
                                    uint64_t seed) {
  std::vector<double> cumulative(num_queries);
  double total = 0.0;
  for (size_t r = 0; r < num_queries; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cumulative[r] = total;
  }
  qec::Rng rng(seed ^ kZipfTag);
  std::vector<StreamEntry> stream;
  stream.reserve(count);
  for (size_t i = 0; i < count && num_queries > 0; ++i) {
    const double x = rng.UniformDouble() * total;
    const size_t rank = std::min<size_t>(
        static_cast<size_t>(
            std::upper_bound(cumulative.begin(), cumulative.end(), x) -
            cumulative.begin()),
        num_queries - 1);
    const bool explain = rng.UniformDouble() < explain_share;
    stream.push_back({static_cast<uint32_t>(rank), explain});
  }
  return stream;
}

}  // namespace pipebench
