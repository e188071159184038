#ifndef QEC_CORE_METRICS_H_
#define QEC_CORE_METRICS_H_

#include <vector>

#include "common/dynamic_bitset.h"
#include "core/result_universe.h"

namespace qec::core {

/// Quality of one expanded query against its cluster (Sec. 2):
///   precision = S(R(q) ∩ C) / S(R(q))
///   recall    = S(R(q) ∩ C) / S(C)
///   F         = 2PR / (P + R)
/// All rank-weighted through S(.). Degenerate cases: empty R(q) has
/// precision 0; empty C has recall 0; F is 0 whenever P + R is 0.
struct QueryQuality {
  double precision = 0.0;
  double recall = 0.0;
  double f_measure = 0.0;
};

/// Quality from the weights S(R(q) ∩ C), S(R(q)) and S(C).
QueryQuality QualityFromWeights(double s_hit, double s_retrieved,
                                double s_cluster);

/// Evaluates `retrieved` = R(q) against ground truth `cluster` = C, both as
/// bitsets over `universe`.
QueryQuality EvaluateQuery(const ResultUniverse& universe,
                           const DynamicBitset& retrieved,
                           const DynamicBitset& cluster);

/// Harmonic mean of `values` (Eq. 1 aggregates per-cluster F-measures this
/// way). Returns 0 when any value is 0 or the list is empty.
double HarmonicMean(const std::vector<double>& values);

/// Eq. 1: score of a set of expanded queries = harmonic mean of their
/// F-measures.
double SetScore(const std::vector<QueryQuality>& qualities);

}  // namespace qec::core

#endif  // QEC_CORE_METRICS_H_
