#include "core/pebc.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/sweep_pool.h"
#include "core/benefit_cost.h"
#include "obs/metrics.h"

namespace qec::core {

namespace {

/// Builds one sample query for a given elimination target. R(q) and the
/// per-candidate benefit/cost evaluations live in the shared
/// AdditionEvaluator (fused kernels); the strategy scratches are leased
/// once from the universe scratch arena and reused across all Build()
/// calls of the builder. Every sample restarts at R(user query), so most
/// sweeps of a run meet an R(q) an earlier sweep has seen: the builder
/// keeps one table row per distinct R(q) and evaluates each (R(q), keyword)
/// pair once per run (see Known).
class SampleBuilder {
 public:
  SampleBuilder(const ExpansionContext& ctx, Rng& rng,
                const SweepOptions& sweep, size_t* recomputations)
      : ctx_(ctx),
        rng_(rng),
        sweep_(sweep),
        recomputations_(recomputations),
        eval_(ctx),
        saved_(ctx.universe->AcquireScratch()),
        selected_(ctx.universe->AcquireScratch()),
        blocked_(ctx.universe->AcquireScratch()) {
    total_u_weight_ = ctx_.universe->TotalWeight(ctx_.others);
    query_.reserve(16);
    candidate_docs_.reserve(ctx_.candidates.size());
    for (TermId k : ctx_.candidates) {
      candidate_docs_.push_back(&ctx_.universe->DocsWithTerm(k));
    }
  }

  /// Generates a query eliminating roughly `target_percent`% of U's weight
  /// while maximizing retained C, using `strategy`.
  PebcSample Build(double target_percent, PebcStrategy strategy) {
    query_.assign(ctx_.user_query.begin(), ctx_.user_query.end());
    eval_.Reset();
    SyncLiveWeight();
    const double target =
        total_u_weight_ * std::clamp(target_percent, 0.0, 100.0) / 100.0;
    switch (strategy) {
      case PebcStrategy::kFixedOrder:
        BuildFixedOrder(target);
        break;
      case PebcStrategy::kRandomSubset:
        BuildRandomSubset(target);
        break;
      case PebcStrategy::kRandomSingleResult:
        BuildRandomSingleResult(target);
        break;
    }
    PebcSample sample;
    sample.target_percent = target_percent;
    sample.achieved_percent =
        total_u_weight_ > 0.0
            ? 100.0 * EliminatedWeight() / total_u_weight_
            : 0.0;
    sample.f_measure =
        EvaluateQuery(*ctx_.universe, eval_.retrieved(), ctx_.cluster)
            .f_measure;
    sample.query = query_;
    return sample;
  }

 private:
  // S(R ∩ U), loop-invariant across a whole candidate sweep: refreshed
  // only when R changes (one fused pass instead of one per
  // EliminatedWeight() call).
  void SyncLiveWeight() {
    live_u_weight_ = ctx_.universe->WeightOfAnd(eval_.retrieved(), ctx_.others);
  }

  double EliminatedWeight() const { return total_u_weight_ - live_u_weight_; }

  // A linear scan: the query holds a handful of keywords. Sweep workers
  // call it concurrently; they only read query_.
  bool InQuery(TermId k) const {
    return std::ranges::find(query_, k) != query_.end();
  }

  // What adding one candidate does at one R(q): Evaluate(k) and the count
  // of results k eliminates depend on nothing else, so a sweep at an R(q)
  // already seen reads them instead of evaluating again. The strategies'
  // filters (InQuery, "can k eliminate r", random-subset's subset weights)
  // still run every sweep, and every read counts as an evaluation, exactly
  // as if it had been recomputed.
  struct Known {
    BenefitCost bc;
    size_t eliminated = 0;  // set unless bc.kills_cluster
    bool filled = false;
  };

  // Hashes an R(q) by its words (the table key is the exact set).
  struct RetrievedHash {
    size_t operator()(const DynamicBitset& r) const {
      size_t h = r.size();
      DynamicBitset::ForEachWord(
          [&](size_t, uint64_t w) {
            h ^= std::hash<uint64_t>{}(w) + 0x9e3779b97f4a7c15ULL + (h << 6) +
                 (h >> 2);
          },
          r);
      return h;
    }
  };

  // The table row of the current R(q), added unfilled on first sight.
  // Runs on the sweeping thread before the workers start; each worker then
  // writes only its own candidate's entry of the row.
  Known* KnownRow() {
    const auto [it, added] =
        known_rows_.try_emplace(eval_.retrieved(), known_.size());
    if (added) known_.resize(known_.size() + ctx_.candidates.size());
    return known_.data() + it->second;
  }

  // Candidate i's entry, evaluated against the current R(q) on first use.
  const Known& Fill(size_t i, Known& entry) const {
    if (!entry.filled) {
      entry.bc = eval_.Evaluate(ctx_.candidates[i]);
      if (!entry.bc.kills_cluster) {
        entry.eliminated = eval_.retrieved().AndNotCount(*candidate_docs_[i]);
      }
      entry.filled = true;
    }
    return entry;
  }

  // One candidate's sweep outcome. `eligible` is false for candidates a
  // strategy filter skipped; `evals` carries the benefit/cost evaluation
  // count into the serial merge (so the recomputations tally is identical
  // to the serial sweep's).
  struct CandidateEntry {
    double value = -1.0;
    size_t eliminated = 0;
    uint32_t evals = 0;
    bool eligible = false;
  };
  /// Scatter target of a sweep.
  using EntryBuffer = std::vector<CandidateEntry>;

  // Evaluates `eval(i, known entry of i)` (a pure function of candidate
  // i at the current R(q)) for every candidate via ParallelFor; the entries
  // are merged in candidate-index order, so any SweepOptions::threads is
  // byte-identical to serial.
  template <typename Eval>
  void SweepCandidates(const Eval& eval, EntryBuffer* out) {
    const size_t n = ctx_.candidates.size();
    out->clear();
    out->resize(n, CandidateEntry{});
    CandidateEntry* entries = out->data();
    Known* known = KnownRow();
    common::ParallelFor(sweep_.threads, n, [&](size_t i) {
      entries[i] = eval(i, known[i]);
    });
    for (const CandidateEntry& e : *out) *recomputations_ += e.evals;
  }

  void ApplyKeyword(TermId k) {
    query_.push_back(k);
    eval_.Add(k);
    SyncLiveWeight();
  }

  void UndoLastKeyword() {
    query_.pop_back();
    eval_.Assign(*saved_);
    SyncLiveWeight();
  }

  // Stops the elimination loop once the target is crossed, keeping the
  // nearer of {with last keyword, without last keyword} (Sec. 4.3's
  // closeness rule, applied to every strategy). The pre-apply retrieved
  // set is parked in saved_ by the caller. Returns true if the loop
  // should stop.
  bool SettleAroundTarget(double target, double before_weight) {
    const double after_weight = EliminatedWeight();
    if (after_weight < target) return false;
    if (std::abs(before_weight - target) < std::abs(after_weight - target)) {
      UndoLastKeyword();
    }
    return true;
  }

  // Serial argmax over swept entries in candidate-index order, with the
  // value-then-fewest-eliminated tiebreak shared by the fixed-order and
  // single-result strategies.
  TermId SelectBestByValueThenElim(const EntryBuffer& entries) const {
    TermId best = kInvalidTermId;
    double best_value = -1.0;
    size_t best_elim = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const CandidateEntry& e = entries[i];
      if (!e.eligible) continue;
      if (e.value > best_value ||
          (e.value == best_value && e.eliminated < best_elim)) {
        best_value = e.value;
        best = ctx_.candidates[i];
        best_elim = e.eliminated;
      }
    }
    return best;
  }

  void BuildFixedOrder(double target) {
    if (EliminatedWeight() >= target) return;
    for (;;) {
      SweepCandidates(
          [&](size_t i, Known& known) {
            CandidateEntry e;
            if (InQuery(ctx_.candidates[i])) return e;
            const Known& kn = Fill(i, known);
            e.evals = 1;
            // Must eliminate something in U, and keep part of C.
            if (kn.bc.benefit <= 0.0 || kn.bc.kills_cluster) return e;
            e.value = ValueOf(kn.bc.benefit, kn.bc.cost);
            e.eliminated = kn.eliminated;
            e.eligible = true;
            return e;
          },
          &entries_buf_);
      TermId best = SelectBestByValueThenElim(entries_buf_);
      if (best == kInvalidTermId) return;
      const double before_weight = EliminatedWeight();
      *saved_ = eval_.retrieved();
      ApplyKeyword(best);
      if (SettleAroundTarget(target, before_weight)) return;
    }
  }

  void BuildRandomSubset(double target) {
    if (EliminatedWeight() >= target) return;
    // Randomly select results of U totalling ~target weight.
    indices_buf_.clear();
    ctx_.others.ForEachSetBit([&](size_t i) { indices_buf_.push_back(i); });
    rng_.Shuffle(indices_buf_);
    selected_->Reinitialize(ctx_.universe->size());
    double selected_weight = 0.0;
    for (size_t i : indices_buf_) {
      if (selected_weight >= target) break;
      double w = ctx_.universe->weight(i);
      // Closeness rule at the selection stage too.
      if (selected_weight + w - target > target - selected_weight &&
          selected_weight > 0.0) {
        break;
      }
      selected_->Set(i);
      selected_weight += w;
    }
    // Greedy weighted cover of the selected subset: maximize weight of
    // selected results eliminated per unit cost, where eliminating
    // non-selected results of U counts as cost (Example 4.3).
    for (;;) {
      if (EliminatedWeight() >= target) return;
      SweepCandidates(
          [&](size_t i, Known& known) {
            CandidateEntry e;
            if (InQuery(ctx_.candidates[i])) return e;
            e.evals = 1;
            const DynamicBitset& docs_k = *candidate_docs_[i];
            const DynamicBitset& retrieved = eval_.retrieved();
            // Eliminated results E = R ∩ ~docs_k, split three ways in
            // fused passes: selected (benefit), cluster and unselected-U
            // (cost).
            double b = ctx_.universe->WeightOfAndNotAnd(retrieved, docs_k,
                                                        *selected_);
            if (b <= 0.0) return e;
            const BenefitCost& bc = Fill(i, known).bc;
            if (bc.kills_cluster) return e;
            double c = bc.cost +
                       ctx_.universe->WeightWhere(
                           [](uint64_t r, uint64_t dk, uint64_t u,
                              uint64_t sel) { return r & ~dk & u & ~sel; },
                           retrieved, docs_k, ctx_.others, *selected_);
            e.value = ValueOf(b, c);
            e.eligible = true;
            return e;
          },
          &entries_buf_);
      // Value-only tiebreak (first candidate in index order wins ties),
      // exactly the serial loop's rule.
      TermId best = kInvalidTermId;
      double best_value = -1.0;
      for (size_t i = 0; i < entries_buf_.size(); ++i) {
        if (!entries_buf_[i].eligible) continue;
        if (entries_buf_[i].value > best_value) {
          best_value = entries_buf_[i].value;
          best = ctx_.candidates[i];
        }
      }
      if (best == kInvalidTermId) return;
      const double before_weight = EliminatedWeight();
      *saved_ = eval_.retrieved();
      ApplyKeyword(best);
      if (SettleAroundTarget(target, before_weight)) return;
    }
  }

  void BuildRandomSingleResult(double target) {
    if (EliminatedWeight() >= target) return;
    // Results for which no candidate keyword works; never re-pick them.
    blocked_->Reinitialize(ctx_.universe->size());
    for (;;) {
      // Un-eliminated results of U that are not blocked.
      indices_buf_.clear();
      DynamicBitset::ForEachWord(
          [&](size_t w, uint64_t r, uint64_t u, uint64_t bl) {
            uint64_t word = r & u & ~bl;
            while (word != 0) {
              int bit = __builtin_ctzll(word);
              indices_buf_.push_back(w * 64 + static_cast<size_t>(bit));
              word &= word - 1;
            }
          },
          eval_.retrieved(), ctx_.others, *blocked_);
      if (indices_buf_.empty()) return;
      size_t r = indices_buf_[rng_.UniformInt(indices_buf_.size())];
      // Best benefit/cost keyword that eliminates r (i.e., r lacks k);
      // ties go to the keyword eliminating fewest results.
      SweepCandidates(
          [&](size_t i, Known& known) {
            CandidateEntry e;
            if (InQuery(ctx_.candidates[i])) return e;
            if (candidate_docs_[i]->Test(r)) return e;  // cannot eliminate r
            const Known& kn = Fill(i, known);
            if (kn.bc.kills_cluster) return e;  // not counted as an evaluation
            e.evals = 1;
            e.value = ValueOf(kn.bc.benefit, kn.bc.cost);
            e.eliminated = kn.eliminated;
            e.eligible = true;
            return e;
          },
          &entries_buf_);
      TermId best = SelectBestByValueThenElim(entries_buf_);
      if (best == kInvalidTermId) {
        blocked_->Set(r);
        continue;
      }
      const double before_weight = EliminatedWeight();
      *saved_ = eval_.retrieved();
      ApplyKeyword(best);
      if (SettleAroundTarget(target, before_weight)) return;
    }
  }

  const ExpansionContext& ctx_;
  Rng& rng_;
  const SweepOptions& sweep_;
  size_t* recomputations_;
  double total_u_weight_ = 0.0;
  std::vector<TermId> query_;
  /// Current R(q), plus strategy scratches leased from the universe arena:
  /// saved_ holds the pre-apply set for the closeness-rule undo, selected_
  /// the random-subset targets, blocked_ the dead ends of the single-
  /// result strategy.
  AdditionEvaluator eval_;
  ResultUniverse::ScratchBitset saved_;
  ResultUniverse::ScratchBitset selected_;
  ResultUniverse::ScratchBitset blocked_;
  /// S(R ∩ U) (see SyncLiveWeight).
  double live_u_weight_ = 0.0;
  /// D(k) of each candidate, by candidate index.
  std::vector<const DynamicBitset*> candidate_docs_;
  /// The per-run table: a row of one Known per candidate for each distinct
  /// R(q) swept, rows stored back to back in known_ and found by R(q)'s
  /// exact bits in known_rows_ (the value is the row's first index).
  std::unordered_map<DynamicBitset, size_t, RetrievedHash> known_rows_;
  std::vector<Known> known_;
  /// Reused index buffer (random-subset shuffle, single-result pool) and
  /// swept-entry buffer (scatter-gather merge target).
  std::vector<size_t> indices_buf_;
  EntryBuffer entries_buf_;
};

}  // namespace

PebcExpander::PebcExpander(PebcOptions options, SweepOptions sweep)
    : options_(options), sweep_(sweep) {}

ExpansionResult PebcExpander::Expand(const ExpansionContext& context) const {
  return ExpandWithTrace(context, nullptr);
}

ExpansionResult PebcExpander::ExpandWithTrace(
    const ExpansionContext& context, std::vector<PebcSample>* trace) const {
  QEC_CHECK(context.universe != nullptr);
  Rng rng(options_.seed);
  size_t recomputations = 0;
  SampleBuilder builder(context, rng, sweep_, &recomputations);

  const size_t nseg = std::max<size_t>(1, options_.num_segments);
  double left = 0.0, right = 100.0;
  PebcSample best;
  best.f_measure = -1.0;
  size_t samples_tested = 0;
  size_t rounds = 0;
  size_t zooms = 0;

  for (size_t it = 0; it < options_.num_iterations; ++it) {
    ++rounds;
    std::vector<PebcSample> round;
    const double step = (right - left) / static_cast<double>(nseg);
    for (size_t i = 0; i <= nseg; ++i) {
      double x = left + step * static_cast<double>(i);
      PebcSample s = builder.Build(x, options_.strategy);
      ++samples_tested;
      if (s.f_measure > best.f_measure) best = s;
      if (trace != nullptr) trace->push_back(s);
      round.push_back(std::move(s));
    }
    // Zoom into the adjacent pair with the highest average F-measure.
    size_t best_pair = 0;
    double best_avg = -1.0;
    for (size_t i = 0; i + 1 < round.size(); ++i) {
      double avg = (round[i].f_measure + round[i + 1].f_measure) / 2.0;
      if (avg > best_avg) {
        best_avg = avg;
        best_pair = i;
      }
    }
    left = round[best_pair].target_percent;
    right = round[best_pair + 1].target_percent;
    ++zooms;
  }

  ExpansionResult result;
  result.query = best.query.empty() ? context.user_query : best.query;
  result.quality = EvaluateAgainstCluster(context, result.query);
  result.iterations = samples_tested;
  result.value_recomputations = recomputations;
  result.pebc_stats.samples_drawn = samples_tested;
  result.pebc_stats.rounds = rounds;
  result.pebc_stats.intervals_zoomed = zooms;
  result.pebc_stats.candidates_evaluated = recomputations;
  result.pebc_stats.best_target_percent = best.target_percent;
  QEC_COUNTER_INC("pebc/runs");
  QEC_COUNTER_ADD("pebc/samples_drawn", samples_tested);
  QEC_COUNTER_ADD("pebc/rounds", rounds);
  QEC_COUNTER_ADD("pebc/intervals_zoomed", zooms);
  QEC_COUNTER_ADD("pebc/benefit_cost_evals", recomputations);
  return result;
}

}  // namespace qec::core
