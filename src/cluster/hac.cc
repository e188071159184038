#include "cluster/hac.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "cluster/cosine_space.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace qec::cluster {

Hac::Hac(HacOptions options) : options_(options) {}

namespace {

/// Dense average-link agglomeration state over an n x n dissimilarity
/// matrix, with Lance-Williams updates:
///   d(A∪B, C) = (|A| d(A,C) + |B| d(B,C)) / (|A| + |B|).
class Agglomerator {
 public:
  explicit Agglomerator(const CosineSpace& space)
      : n_(space.size()),
        active_(n_, true),
        active_count_(n_),
        size_(n_, 1),
        dist_(n_ * n_) {
    // Distances are symmetric bit for bit, so each pair is computed once
    // and mirrored; the diagonal is never read.
    space.ForEachPair([&](size_t i, size_t j, double d) {
      dist_[i * n_ + j] = d;
      dist_[j * n_ + i] = d;
    });
    // members_[c] = point indices currently in cluster c.
    members_.resize(n_);
    for (size_t i = 0; i < n_; ++i) members_[i] = {i};
  }

  size_t num_active() const { return active_count_; }

  /// Merges the closest active pair. Returns false when fewer than two
  /// clusters remain.
  bool MergeClosest() {
    if (active_count_ < 2) return false;
    QEC_COUNTER_INC("cluster/hac_merges");
    size_t best_a = 0, best_b = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < n_; ++a) {
      if (!active_[a]) continue;
      for (size_t b = a + 1; b < n_; ++b) {
        if (!active_[b]) continue;
        double d = dist_[a * n_ + b];
        if (d < best_d) {
          best_d = d;
          best_a = a;
          best_b = b;
        }
      }
    }
    // Merge best_b into best_a.
    const double wa = static_cast<double>(size_[best_a]);
    const double wb = static_cast<double>(size_[best_b]);
    for (size_t c = 0; c < n_; ++c) {
      if (!active_[c] || c == best_a || c == best_b) continue;
      double d = (wa * dist_[best_a * n_ + c] + wb * dist_[best_b * n_ + c]) /
                 (wa + wb);
      dist_[best_a * n_ + c] = d;
      dist_[c * n_ + best_a] = d;
    }
    size_[best_a] += size_[best_b];
    active_[best_b] = false;
    --active_count_;
    members_[best_a].insert(members_[best_a].end(), members_[best_b].begin(),
                            members_[best_b].end());
    members_[best_b].clear();
    return true;
  }

  /// Current assignment with dense labels.
  Clustering Snapshot() const {
    Clustering out;
    out.assignment.assign(n_, 0);
    int next = 0;
    for (size_t c = 0; c < n_; ++c) {
      if (!active_[c]) continue;
      for (size_t i : members_[c]) out.assignment[i] = next;
      ++next;
    }
    out.num_clusters = static_cast<size_t>(next);
    return out;
  }

 private:
  size_t n_;
  std::vector<bool> active_;
  size_t active_count_;
  std::vector<size_t> size_;
  std::vector<double> dist_;
  std::vector<std::vector<size_t>> members_;
};

}  // namespace

Clustering Hac::Cluster(const std::vector<SparseVector>& points) const {
  const TermRows rows = RowsOf(points);
  return Cluster(CosineSpace(rows));
}

Clustering Hac::Cluster(const CosineSpace& space) const {
  QEC_COUNTER_INC("cluster/hac_runs");
  const size_t n = space.size();
  const size_t k_max = std::min(options_.k == 0 ? size_t{1} : options_.k,
                                std::max<size_t>(n, 1));
  Agglomerator agg(space);
  while (agg.num_active() > k_max && agg.MergeClosest()) {
  }
  if (!options_.auto_k || n <= 2 || k_max <= 1) return agg.Snapshot();
  // One agglomeration pass collects every cut <= k_max; one silhouette pass
  // scores them all.
  std::vector<Clustering> cuts = {agg.Snapshot()};
  while (agg.num_active() > 2 && agg.MergeClosest()) {
    cuts.push_back(agg.Snapshot());
  }
  const std::vector<double> scores = MeanSilhouettes(space, cuts);
  size_t best = 0;
  for (size_t c = 1; c < cuts.size(); ++c) {
    if (scores[c] > scores[best] + 1e-12) best = c;
  }
  // The single-cluster cut is the neutral baseline.
  if (scores[best] <= 0.0) {
    Clustering one;
    one.assignment.assign(n, 0);
    one.num_clusters = 1;
    return one;
  }
  return std::move(cuts[best]);
}

Clustering SelectBestClustering(const std::vector<SparseVector>& points,
                                size_t k_max, uint64_t seed,
                                ClusteringMethod* chosen) {
  const TermRows rows = RowsOf(points);
  return SelectBestClustering(CosineSpace(rows), k_max, seed, chosen);
}

Clustering SelectBestClustering(const CosineSpace& space, size_t k_max,
                                uint64_t seed, ClusteringMethod* chosen) {
  KMeansOptions kopts;
  kopts.k = k_max;
  kopts.seed = seed;
  kopts.auto_k = true;
  HacOptions hopts;
  hopts.k = k_max;
  hopts.auto_k = true;
  // Both winners scored in one silhouette pass.
  std::vector<Clustering> winners;
  winners.push_back(KMeans(kopts).Cluster(space));
  winners.push_back(Hac(hopts).Cluster(space));
  const std::vector<double> scores = MeanSilhouettes(space, winners);
  const bool hac = scores[1] > scores[0];
  if (chosen != nullptr) {
    *chosen = hac ? ClusteringMethod::kHac : ClusteringMethod::kKMeans;
  }
  return std::move(winners[hac ? 1 : 0]);
}

}  // namespace qec::cluster
