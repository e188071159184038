// Inputs of the benchmark workloads, generated from the run's seed. The
// corpora are fixed; the seed picks the query sample, its order and the
// serving request stream, so the same seed always yields the same inputs.
#ifndef PIPEBENCH_WORKLOAD_INPUTS_H_
#define PIPEBENCH_WORKLOAD_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/shopping.h"
#include "index/inverted_index.h"

namespace pipebench {

/// A request input with the name its latency samples are reported under.
struct NamedQuery {
  std::string name;
  std::string text;

  friend bool operator==(const NamedQuery&, const NamedQuery&) = default;
};

/// The shopping catalog at the size fig6 uses (products_per_family = 30,
/// 960 products).
qec::datagen::ShoppingOptions PaperScaleShopping();

/// Document-frequency band of the sampled catalog terms: paper-scale
/// result counts (tens to hundreds of results per query).
inline constexpr size_t kMinSampleDf = 40;
inline constexpr size_t kMaxSampleDf = 600;

/// Terms of `index` with document frequency in [min_df, max_df] whose own
/// string analyzes back to exactly that term, by descending frequency
/// (ties by string).
std::vector<std::string> DfBandTerms(const qec::index::InvertedIndex& index,
                                     size_t min_df, size_t max_df);

/// The shopping query set: QS1-QS10 plus the df-band terms, in a seeded
/// order. With `sample`, the seed also leaves out one term per stratum of
/// 8 consecutive terms, except among the 16 most frequent, which are
/// always in. Stratifying by frequency keeps the cost distribution, and
/// so the metrics, nearly the same from seed to seed.
std::vector<NamedQuery> ShoppingQuerySet(
    const qec::index::InvertedIndex& index, uint64_t seed, bool sample);

/// The distinct queries of the serving workload over a `clustered` corpus,
/// in a fixed popularity order that does not depend on the run seed:
/// topic terms, background terms, and topic + background pairs, each
/// retrieving at least one document.
std::vector<std::string> ClusteredQueryUniverse(
    const qec::index::InvertedIndex& index);

/// One request of a Zipf stream: the popularity rank of its query and
/// whether it is sent as EXPLAIN instead of EXPAND.
struct StreamEntry {
  uint32_t query = 0;
  bool explain = false;

  friend bool operator==(const StreamEntry&, const StreamEntry&) = default;
};

/// `count` requests over `num_queries` ranks, rank r drawn with weight
/// 1 / (r + 1)^exponent, each an EXPLAIN with probability
/// `explain_share`.
std::vector<StreamEntry> ZipfStream(size_t num_queries, size_t count,
                                    double exponent, double explain_share,
                                    uint64_t seed);

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOAD_INPUTS_H_
