#ifndef QEC_CORE_RESULT_UNIVERSE_H_
#define QEC_CORE_RESULT_UNIVERSE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cluster/cosine_space.h"
#include "common/dynamic_bitset.h"
#include "common/logging.h"
#include "common/types.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"

namespace qec::core {

/// Hit/miss totals of the opt-in set-algebra memo (EnableSetAlgebraCache).
struct SetAlgebraCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Reuse/alloc totals of the per-universe scratch arena (AcquireScratch).
/// In the steady state every acquisition is a reuse: the benefit/cost
/// inner loops allocate nothing per evaluation.
struct ScratchArenaStats {
  uint64_t reuses = 0;
  uint64_t allocs = 0;
};

/// The universe of results of the original user query, over which expanded
/// queries are generated and evaluated. All expansion algorithms work
/// relative to this fixed set (the paper expands based on the clustered
/// results, typically the top-K of the original query).
///
/// Results get dense local ids 0..size()-1; set algebra uses DynamicBitset
/// over local ids. Each result carries a ranking weight: the paper's S(.)
/// is the sum of weights of a set of results (weight 1.0 when unranked).
///
/// Terms get dense local ids too: a term's rank among the results' distinct
/// terms in ascending TermId order (cluster::TermRanks), so DistinctTerms()
/// lists them by local id. The build walks the results' sorted term sets
/// twice, once to mark the terms and once to fill the result-term matrix:
/// each result's (local id, tf) row, read by clustering as a
/// cluster::CosineSpace; each term's bitset of results; and each term's tf
/// total.
class ResultUniverse {
  struct ScratchArena;  // defined in result_universe.cc

 public:
  /// Builds from ranked results of the user query. Weights are the ranking
  /// scores; non-positive scores are clamped to a small epsilon so S(.)
  /// stays a valid measure.
  ResultUniverse(const doc::Corpus& corpus,
                 const std::vector<index::RankedResult>& results);

  /// Builds an unranked universe (all weights 1.0).
  ResultUniverse(const doc::Corpus& corpus, const std::vector<DocId>& results);

  size_t size() const { return docs_.size(); }

  DocId doc_at(size_t local) const { return docs_[local]; }
  double weight(size_t local) const { return weights_[local]; }

  const doc::Corpus& corpus() const { return *corpus_; }

  /// S(set): total ranking weight of the results in `set`.
  double TotalWeight(const DynamicBitset& set) const;

  /// Fused weighted kernels: S(.) of a multi-operand set expression in one
  /// pass, never materializing the intermediate set. Summation order is
  /// ascending local id — bit-identical to composing the sets and calling
  /// TotalWeight. Each call bumps the universe/fused_evals counter.

  /// S(a ∩ b).
  double WeightOfAnd(const DynamicBitset& a, const DynamicBitset& b) const;

  /// S(a ∩ b ∩ c).
  double WeightOfAndAnd(const DynamicBitset& a, const DynamicBitset& b,
                        const DynamicBitset& c) const;

  /// S(a \ b).
  double WeightOfAndNot(const DynamicBitset& a, const DynamicBitset& b) const;

  /// S((a \ b) ∩ c).
  double WeightOfAndNotAnd(const DynamicBitset& a, const DynamicBitset& b,
                           const DynamicBitset& c) const;

  /// Generic fused weighted fold: `combine(words...)` receives one 64-bit
  /// word per operand and returns the word of the combined set; the
  /// weights of its set bits are summed. The combined word must be 0 for
  /// bits past size() (any expression that ANDs at least one operand
  /// positively is safe).
  template <typename Combine, typename... Sets>
  double WeightWhere(Combine&& combine, const Sets&... sets) const;

  /// S(universe).
  double total_weight() const { return total_weight_; }

  /// Bitset of results containing `term` (all-zero for unknown terms).
  const DynamicBitset& DocsWithTerm(TermId term) const;

  /// R(q) within the universe under AND semantics: results containing every
  /// term of `query`. The empty query retrieves the whole universe. Takes
  /// a span so callers may keep their query in any contiguous buffer
  /// (std::vector, std::array, a C array).
  DynamicBitset Retrieve(std::span<const TermId> query) const;

  /// R(q) into `out`, reusing its word storage (no allocation once the
  /// buffer is warm). Bypasses the set-algebra memo: meant for hot loops
  /// that own a scratch buffer (typically leased via AcquireScratch).
  void RetrieveInto(std::span<const TermId> query, DynamicBitset* out) const;

  /// R(q \ {excluded}) into `out`; every occurrence of `excluded` in
  /// `query` is skipped. The allocation-free core of ISKR's removal probe.
  void RetrieveWithoutInto(std::span<const TermId> query, TermId excluded,
                           DynamicBitset* out) const;

  /// R(q) within the universe under OR semantics: results containing at
  /// least one term of `query`. The empty query retrieves nothing.
  DynamicBitset RetrieveOr(std::span<const TermId> query) const;

  /// Braced-list conveniences forwarding to the span overloads (a braced
  /// initializer does not deduce to std::span; std::vector converts via
  /// span's range constructor).
  DynamicBitset Retrieve(std::initializer_list<TermId> query) const {
    return Retrieve(std::span<const TermId>(query.begin(), query.size()));
  }
  void RetrieveInto(std::initializer_list<TermId> query,
                    DynamicBitset* out) const {
    RetrieveInto(std::span<const TermId>(query.begin(), query.size()), out);
  }
  void RetrieveWithoutInto(std::initializer_list<TermId> query,
                           TermId excluded, DynamicBitset* out) const {
    RetrieveWithoutInto(std::span<const TermId>(query.begin(), query.size()),
                        excluded, out);
  }
  DynamicBitset RetrieveOr(std::initializer_list<TermId> query) const {
    return RetrieveOr(std::span<const TermId>(query.begin(), query.size()));
  }

  /// All distinct terms that appear in at least one result, ascending;
  /// element l is the term of local id l.
  const std::vector<TermId>& DistinctTerms() const { return distinct_terms_; }

  /// Row i holds result i's terms as (local id, tf) pairs, local ids
  /// ascending: the TF vectors that clustering compares (Appendix C).
  const cluster::TermRows& term_rows() const { return rows_; }

  /// Total term frequency of `term` across the universe's results.
  int TotalTermFrequency(TermId term) const;

  /// DocsWithTerm and TotalTermFrequency of the term with local id
  /// `local` (DistinctTerms()[local]), without the rank lookup.
  const DynamicBitset& DocsWithLocalTerm(size_t local) const {
    return term_docs_[local];
  }
  int LocalTermFrequency(size_t local) const { return term_tf_[local]; }

  /// A bitset of the right size, all clear.
  DynamicBitset EmptySet() const { return DynamicBitset(size()); }

  /// A bitset of the right size, all set.
  DynamicBitset FullSet() const { return DynamicBitset(size(), true); }

  /// RAII lease on a universe-sized scratch bitset (see AcquireScratch).
  /// Returns the buffer — capacity intact — to the arena on destruction.
  class ScratchBitset {
   public:
    ScratchBitset(ScratchBitset&& other) noexcept;
    ScratchBitset& operator=(ScratchBitset&&) = delete;
    ScratchBitset(const ScratchBitset&) = delete;
    ScratchBitset& operator=(const ScratchBitset&) = delete;
    ~ScratchBitset();

    DynamicBitset& operator*() { return bits_; }
    const DynamicBitset& operator*() const { return bits_; }
    DynamicBitset* operator->() { return &bits_; }
    const DynamicBitset* operator->() const { return &bits_; }

   private:
    friend class ResultUniverse;
    ScratchBitset(std::shared_ptr<ScratchArena> arena, DynamicBitset bits);

    /// Keeps the arena alive even if the lease outlives the universe.
    std::shared_ptr<ScratchArena> arena_;
    DynamicBitset bits_;
  };

  /// Leases a universe-sized bitset (all clear, or all set) from the
  /// per-universe scratch arena. Buffers keep their word storage across
  /// leases, so expansion states constructed over the same universe —
  /// per-cluster threads, PEBC's per-sample rebuilds, repeated serving
  /// requests against a cached universe — stop allocating once the arena
  /// is warm (ScratchArenaStats counts reuses vs allocs). Thread-safe; the
  /// arena mutex is touched per lease, never per set operation.
  ScratchBitset AcquireScratch(bool all_set = false) const;
  ScratchArenaStats scratch_arena_stats() const;

  /// Turns on memoization of small-arity Retrieve conjunctions (up to
  /// kMaxMemoArity terms). Memoized calls return bit-identical results;
  /// repeated calls copy the cached bitset instead of re-running the AND
  /// loop. Thread-safe: concurrent per-cluster expansion threads share the
  /// memo. The memo is bounded by the distinct queries evaluated, small
  /// for a per-request universe.
  void EnableSetAlgebraCache();
  bool set_algebra_cache_enabled() const { return set_cache_ != nullptr; }
  SetAlgebraCacheStats set_algebra_cache_stats() const;

  /// Conjunctions of more than this many terms bypass the memo (the key
  /// grows and hit rates drop with arity; small queries dominate).
  static constexpr size_t kMaxMemoArity = 4;

 private:
  void BuildTermRows();

  /// DocsWithTerm without the universe/term_lookups counter, for internal
  /// callers whose own batched counters already account for the lookup.
  const DynamicBitset& FindDocs(TermId term) const {
    const uint32_t local = ranks_.Find(term);
    return local == cluster::TermRanks::kAbsent ? empty_ : term_docs_[local];
  }

  const doc::Corpus* corpus_;
  std::vector<DocId> docs_;
  std::vector<double> weights_;
  /// True when every result weighs exactly 1.0 (the unranked setting).
  /// S(.) of a set expression is then its cardinality, so the weighted
  /// kernels shortcut to the popcount kernels — bit-identical, because
  /// summing k in-order 1.0s yields exactly k.
  bool unit_weights_ = false;
  double total_weight_ = 0.0;
  cluster::TermRanks ranks_;
  cluster::TermRows rows_;
  /// Indexed by local term id.
  std::vector<DynamicBitset> term_docs_;
  std::vector<int> term_tf_;
  std::vector<TermId> distinct_terms_;
  DynamicBitset empty_;
  /// shared_ptr keeps the universe copyable; copies share the memo, which
  /// stays correct because they also share identical term/doc contents.
  struct SetAlgebraCache;
  std::shared_ptr<SetAlgebraCache> set_cache_;
  /// Always non-null. shared_ptr for the same copyability reason; copies
  /// share the arena (identical universe size, so buffers interchange).
  std::shared_ptr<ScratchArena> scratch_;
};

template <typename Combine, typename... Sets>
double ResultUniverse::WeightWhere(Combine&& combine,
                                   const Sets&... sets) const {
  QEC_COUNTER_INC("universe/fused_evals");
  auto check_size = [this](const DynamicBitset& s) {
    QEC_CHECK_EQ(s.size(), docs_.size());
  };
  (check_size(sets), ...);
  double sum = 0.0;
  const double* weights = weights_.data();
  DynamicBitset::ForEachWord(
      [&](size_t w, auto... words) {
        uint64_t word = combine(words...);
        while (word != 0) {
          int bit = __builtin_ctzll(word);
          sum += weights[w * 64 + static_cast<size_t>(bit)];
          word &= word - 1;
        }
      },
      sets...);
  return sum;
}

}  // namespace qec::core

#endif  // QEC_CORE_RESULT_UNIVERSE_H_
