#include "core/metrics.h"

namespace qec::core {

QueryQuality QualityFromWeights(double s_hit, double s_retrieved,
                                double s_cluster) {
  QueryQuality q;
  q.precision = s_retrieved > 0.0 ? s_hit / s_retrieved : 0.0;
  q.recall = s_cluster > 0.0 ? s_hit / s_cluster : 0.0;
  const double denom = q.precision + q.recall;
  q.f_measure = denom > 0.0 ? 2.0 * q.precision * q.recall / denom : 0.0;
  return q;
}

QueryQuality EvaluateQuery(const ResultUniverse& universe,
                           const DynamicBitset& retrieved,
                           const DynamicBitset& cluster) {
  // S(R ∩ C) in one fused pass — no materialized intersection.
  return QualityFromWeights(universe.WeightOfAnd(retrieved, cluster),
                            universe.TotalWeight(retrieved),
                            universe.TotalWeight(cluster));
}

double HarmonicMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double inv_sum = 0.0;
  for (double v : values) {
    if (v <= 0.0) return 0.0;
    inv_sum += 1.0 / v;
  }
  return static_cast<double>(values.size()) / inv_sum;
}

double SetScore(const std::vector<QueryQuality>& qualities) {
  std::vector<double> fs;
  fs.reserve(qualities.size());
  for (const auto& q : qualities) fs.push_back(q.f_measure);
  return HarmonicMean(fs);
}

}  // namespace qec::core
