#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/cosine_space.h"
#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics.h"

namespace qec::cluster {

std::vector<std::vector<size_t>> Clustering::Members() const {
  std::vector<std::vector<size_t>> members(num_clusters);
  for (size_t i = 0; i < assignment.size(); ++i) {
    QEC_CHECK_GE(assignment[i], 0);
    QEC_CHECK_LT(static_cast<size_t>(assignment[i]), num_clusters);
    members[static_cast<size_t>(assignment[i])].push_back(i);
  }
  return members;
}

KMeans::KMeans(KMeansOptions options) : options_(options) {}

namespace {

// k-means++ seeding: first centroid uniform, subsequent proportional to
// squared distance to the nearest chosen centroid. Each seed's distances
// are computed once, with the seed as a one-column tile.
std::vector<size_t> SeedPlusPlus(const CosineSpace& space, size_t k,
                                 Rng& rng) {
  const size_t n = space.size();
  std::vector<size_t> seeds;
  seeds.push_back(static_cast<size_t>(rng.UniformInt(n)));
  std::vector<double> best_dist(n, std::numeric_limits<double>::infinity());
  std::vector<double> row(n), tile(space.dims(), 0.0);
  while (seeds.size() < k) {
    space.PointDistances(seeds.back(), 1, 0, tile.data(), row.data());
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      best_dist[i] = std::min(best_dist[i], row[i] * row[i]);
      total += best_dist[i];
    }
    if (total <= 0.0) {
      // All points coincide with some centroid; pick any unused point.
      size_t next = seeds.size() % n;
      seeds.push_back(next);
      continue;
    }
    double target = rng.UniformDouble() * total;
    size_t chosen = n - 1;
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += best_dist[i];
      if (acc >= target) {
        chosen = i;
        break;
      }
    }
    seeds.push_back(chosen);
  }
  return seeds;
}

// Checks that `clustering` labels each of n points below its num_clusters.
void CheckLabels(const Clustering& clustering, size_t n) {
  QEC_CHECK_EQ(clustering.assignment.size(), n);
  for (int a : clustering.assignment) {  // a negative label wraps too
    QEC_CHECK_LT(static_cast<size_t>(a), clustering.num_clusters);
  }
}

// norms[c] = Euclidean norm of column c of a term-major dims x k matrix,
// in one row-major pass; each column adds its squares in ascending term
// order.
void ColumnNorms(const std::vector<double>& centroids,
                 std::vector<double>& norms) {
  const size_t k = norms.size();
  std::fill(norms.begin(), norms.end(), 0.0);
  for (size_t row = 0; row < centroids.size(); row += k) {
    for (size_t c = 0; c < k; ++c) {
      norms[c] += centroids[row + c] * centroids[row + c];
    }
  }
  for (double& norm : norms) norm = std::sqrt(norm);
}

// Scales every column c of a term-major dims x k centroid matrix with
// counts[c] > 0 to unit norm by multiplying with 1 / norm (a zero column
// stays zero), and writes every column's norm. A column left alone is
// multiplied by 1.0, which changes no bit.
void NormalizeColumns(std::vector<double>& centroids,
                      const std::vector<size_t>& counts,
                      std::vector<double>& norms) {
  const size_t k = norms.size();
  ColumnNorms(centroids, norms);
  std::vector<double> scale(k, 1.0);
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] > 0 && norms[c] > 0.0) scale[c] = 1.0 / norms[c];
  }
  for (size_t row = 0; row < centroids.size(); row += k) {
    for (size_t c = 0; c < k; ++c) centroids[row + c] *= scale[c];
  }
  ColumnNorms(centroids, norms);
}

// The start every k shares: the seeds as the normalized columns of a
// term-major dims x width matrix, their norms, and every point's
// distances to them (point i's at dist[i * width, i * width + width)).
// Normalizing a column and a point's dot product with it read only that
// column, so the first k columns, norms and distances are bit for bit
// those of the first k seeds alone.
struct Start {
  size_t width = 0;
  std::vector<double> columns, norms, dist;
};

Start StartFrom(const CosineSpace& space, const std::vector<size_t>& seeds) {
  Start start;
  start.width = seeds.size();
  start.columns.assign(space.dims() * start.width, 0.0);
  for (size_t c = 0; c < start.width; ++c) {
    space.AddTo(seeds[c], start.columns.data(), start.width, c);
  }
  start.norms.resize(start.width);
  NormalizeColumns(start.columns, std::vector<size_t>(start.width, 1),
                   start.norms);
  start.dist.resize(space.size() * start.width);
  space.CentroidDistances(0, space.size(), start.columns.data(),
                          start.norms.data(), start.width, start.dist.data());
  return start;
}

// Spherical k-means for one k over dense centroids, started from the first
// k columns of `start`.
Clustering ClusterWithK(const CosineSpace& space, const Start& start,
                        size_t k_arg, size_t max_iterations) {
  Clustering result;
  const size_t n = space.size();
  result.assignment.assign(n, 0);
  if (n == 0) return result;

  const size_t k = std::min(k_arg == 0 ? size_t{1} : k_arg, n);
  if (k == 1) {
    result.num_clusters = 1;
    return result;
  }
  if (k == n) {
    for (size_t i = 0; i < n; ++i) result.assignment[i] = static_cast<int>(i);
    result.num_clusters = n;
    return result;
  }

  QEC_CHECK_LE(k, start.width);
  std::vector<double> centroids(space.dims() * k);
  for (size_t row = 0; row < space.dims(); ++row) {
    std::copy_n(&start.columns[row * start.width], k, &centroids[row * k]);
  }
  std::vector<double> next(centroids.size());
  std::vector<size_t> counts(k);
  std::vector<double> norms(start.norms.begin(), start.norms.begin() + k);
  std::vector<double> dist(n * k);

  // At least one assignment pass, so every point has a label.
  std::vector<int> assignment(n, -1);
  const size_t passes = std::max(max_iterations, size_t{1});
  for (size_t iter = 0; iter < passes; ++iter) {
    QEC_COUNTER_INC("cluster/kmeans_iterations");
    bool changed = false;
    // Assignment step; the first pass reads the shared start's distances.
    const double* d = start.dist.data();
    size_t stride = start.width;
    if (iter > 0) {
      space.CentroidDistances(0, n, centroids.data(), norms.data(), k,
                              dist.data());
      d = dist.data();
      stride = k;
    }
    for (size_t i = 0; i < n; ++i, d += stride) {
      int best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        if (d[c] < best_d) {
          best_d = d[c];
          best = static_cast<int>(c);
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Update step: centroid = normalized sum of members, summed in
    // ascending member order. An empty centroid is kept; compacted later.
    std::fill(next.begin(), next.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(assignment[i]);
      space.AddTo(i, next.data(), k, c);
      counts[c]++;
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] > 0) continue;
      for (size_t at = c; at < next.size(); at += k) next[at] = centroids[at];
    }
    NormalizeColumns(next, counts, norms);
    centroids.swap(next);
  }

  // Compact away empty clusters so labels are dense.
  std::vector<int> remap(k, -1);
  int next_label = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t c = static_cast<size_t>(assignment[i]);
    if (remap[c] == -1) remap[c] = next_label++;
  }
  for (size_t i = 0; i < n; ++i) {
    result.assignment[i] = remap[static_cast<size_t>(assignment[i])];
  }
  result.num_clusters = static_cast<size_t>(next_label);
  return result;
}

}  // namespace

Clustering KMeans::Cluster(const std::vector<SparseVector>& points) const {
  const TermRows rows = RowsOf(points);
  return Cluster(CosineSpace(rows));
}

Clustering KMeans::Cluster(const CosineSpace& space) const {
  QEC_COUNTER_INC("cluster/kmeans_runs");
  const size_t n = space.size();
  const size_t k_max = std::min(options_.k == 0 ? size_t{1} : options_.k, n);
  const bool auto_k = options_.auto_k && n > 2 && k_max > 1;
  // Every k restarts the same Rng, so the seeds for k are the first k of
  // one sequence, drawn once for the largest 1 < k < n tried; their
  // columns and first distances are computed once too (Start).
  const size_t seeded = auto_k ? std::min(k_max, n - 1) : k_max < n ? k_max : 0;
  Rng rng(options_.seed);
  const Start start = StartFrom(
      space, seeded > 1 ? SeedPlusPlus(space, seeded, rng)
                        : std::vector<size_t>{});
  const size_t iterations = options_.max_iterations;
  if (!auto_k) return ClusterWithK(space, start, k_max, iterations);
  // Try every k up to the bound and keep the best mean silhouette, scored
  // from cluster sums. A candidate must beat the best so far by 1e-12, far
  // above the sum form's distance from the pairwise scores, so ties and the
  // all-neutral case prefer the smaller k.
  std::vector<Clustering> candidates;
  for (size_t k = 2; k <= k_max; ++k) {
    Clustering candidate = ClusterWithK(space, start, k, iterations);
    if (candidate.num_clusters >= 2) candidates.push_back(std::move(candidate));
  }
  const std::vector<double> scores = MeanSilhouettesFromSums(space, candidates);
  Clustering best = ClusterWithK(space, start, 1, iterations);
  double best_score = 0.0;  // k = 1 is the neutral baseline
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (scores[c] > best_score + 1e-12) {
      best_score = scores[c];
      best = std::move(candidates[c]);
    }
  }
  return best;
}

std::vector<double> MeanSilhouettes(const CosineSpace& space,
                                    std::span<const Clustering> clusterings) {
  // Per-(point, cluster) sums one pass may hold: 8 MiB of doubles.
  constexpr size_t kSumBudget = size_t{1} << 20;
  const size_t n = space.size();
  std::vector<double> total(clusterings.size(), 0.0);
  // A clustering with fewer than two clusters scores 0 (neutral).
  std::vector<size_t> scored;
  for (size_t c = 0; c < clusterings.size(); ++c) {
    const Clustering& clustering = clusterings[c];
    CheckLabels(clustering, n);
    if (clustering.num_clusters >= 2) scored.push_back(c);
  }

  std::vector<double> sum;
  std::vector<uint32_t> slot_of;
  std::vector<size_t> first, cluster_size;
  for (size_t begin = 0, end = 0; begin < scored.size(); begin = end) {
    // One pass scores clusterings scored[begin..end): at least one, more
    // while their sums fit the budget. Clustering q of the pass owns slots
    // [first[q], first[q + 1]), one per cluster; slot_of[i * m + q] is
    // point i's.
    first.assign(1, 0);
    do {
      first.push_back(first.back() + clusterings[scored[end++]].num_clusters);
    } while (end < scored.size() &&
             (first.back() + clusterings[scored[end]].num_clusters) * n <=
                 kSumBudget);
    const size_t m = end - begin;
    const size_t slots = first.back();
    slot_of.resize(n * m);
    cluster_size.assign(slots, 0);
    for (size_t q = 0; q < m; ++q) {
      const auto& labels = clusterings[scored[begin + q]].assignment;
      for (size_t i = 0; i < n; ++i) {
        const size_t s = first[q] + static_cast<size_t>(labels[i]);
        slot_of[i * m + q] = static_cast<uint32_t>(s);
        ++cluster_size[s];
      }
    }
    // sum[i * slots + s] = distance sum from point i to slot s's points
    // other than i. Pair (i, j), i < j, adds d(i, j) to i's sums and to
    // j's in ascending (i, j) order, so every sum receives its terms in
    // ascending point order.
    sum.assign(n * slots, 0.0);
    space.ForEachPair([&](size_t i, size_t j, double d) {
      double* sum_i = &sum[i * slots];
      double* sum_j = &sum[j * slots];
      const uint32_t* slot_i = &slot_of[i * m];
      const uint32_t* slot_j = &slot_of[j * m];
      for (size_t q = 0; q < m; ++q) {
        sum_i[slot_j[q]] += d;
        sum_j[slot_i[q]] += d;
      }
    });
    for (size_t q = 0; q < m; ++q) {
      double& score = total[scored[begin + q]];
      for (size_t i = 0; i < n; ++i) {
        const size_t own = slot_of[i * m + q];
        if (cluster_size[own] <= 1) continue;  // singleton scores 0
        const double* sum_i = &sum[i * slots];
        const double a =
            sum_i[own] / static_cast<double>(cluster_size[own] - 1);
        double b = std::numeric_limits<double>::infinity();
        for (size_t s = first[q]; s < first[q + 1]; ++s) {
          if (s == own || cluster_size[s] == 0) continue;
          b = std::min(b, sum_i[s] / static_cast<double>(cluster_size[s]));
        }
        if (std::isinf(b)) continue;  // no other non-empty cluster: 0
        const double denom = std::max(a, b);
        score += denom > 0.0 ? (b - a) / denom : 0.0;
      }
    }
  }
  if (n > 0) {
    for (double& score : total) score /= static_cast<double>(n);
  }
  return total;
}

std::vector<double> MeanSilhouettesFromSums(
    const CosineSpace& space, std::span<const Clustering> clusterings) {
  // Mean distances at or below this are rounding noise of the identity.
  constexpr double kSumRounding = 1e-12;
  const size_t n = space.size();
  std::vector<double> scores(clusterings.size(), 0.0);
  std::vector<double> sums, norms, dist;
  std::vector<size_t> cluster_size;
  for (size_t q = 0; q < clusterings.size(); ++q) {
    const Clustering& clustering = clusterings[q];
    CheckLabels(clustering, n);
    const size_t k = clustering.num_clusters;
    if (k < 2) continue;  // neutral
    // Column c of the term-major dims x k `sums` is C_c, the sum of the
    // unit vectors of cluster c's points; a zero-norm point adds nothing.
    sums.assign(space.dims() * k, 0.0);
    cluster_size.assign(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(clustering.assignment[i]);
      ++cluster_size[c];
      if (space.norm(i) > 0.0) {
        space.AddTo(i, sums.data(), k, c, 1.0 / space.norm(i));
      }
    }
    norms.resize(k);
    ColumnNorms(sums, norms);
    dist.resize(n * k);
    space.CentroidDistances(0, n, sums.data(), norms.data(), k, dist.data());
    double& score = scores[q];
    for (size_t i = 0; i < n; ++i) {
      const size_t own = static_cast<size_t>(clustering.assignment[i]);
      if (cluster_size[own] <= 1) continue;  // singleton scores 0
      // The distance sum from point i to cluster c is |c| - x̂_i·C_c, and
      // x̂_i·C_c = (1 - d)·|C_c| for i's kernel distance d to column c
      // (0 when either is zero). Its own cluster drops i's own term,
      // x̂_i·x̂_i: 1, or 0 for a zero-norm point.
      const double* d = &dist[i * k];
      const double self = space.norm(i) > 0.0 ? 1.0 : 0.0;
      const double a =
          (static_cast<double>(cluster_size[own] - 1) -
           ((1.0 - d[own]) * norms[own] - self)) /
          static_cast<double>(cluster_size[own] - 1);
      double b = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        if (c == own || cluster_size[c] == 0) continue;
        const double size = static_cast<double>(cluster_size[c]);
        b = std::min(b, (size - (1.0 - d[c]) * norms[c]) / size);
      }
      if (std::isinf(b)) continue;  // no other non-empty cluster: 0
      // Both means within the identity's rounding of 0 (i's copies on
      // both sides): the pairwise form gets a = b there, and so 0.
      const double denom = std::max(a, b);
      score += denom > kSumRounding ? (b - a) / denom : 0.0;
    }
    score /= static_cast<double>(n);
  }
  return scores;
}

double MeanSilhouette(const std::vector<SparseVector>& points,
                      const Clustering& clustering) {
  const TermRows rows = RowsOf(points);
  return MeanSilhouettes(CosineSpace(rows), {&clustering, 1})[0];
}

}  // namespace qec::cluster
