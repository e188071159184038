// Oracle property test for qec_cluster's dense-gather kernel. The oracle
// below is a verbatim copy of the sparse-merge k-means, silhouette and HAC
// code the kernel replaced (with SparseVector's Cosine/AddScaled/Scale/
// Normalize as private copies). Over seeded shopping, Wikipedia, clustered
// and random inputs, every size and bound must give the same assignments,
// the same cluster counts, the same HAC cuts and method choice, and
// bit-identical silhouette scores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/hac.h"
#include "cluster/kmeans.h"
#include "common/random.h"
#include "datagen/clustered.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "datagen/workload.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"

namespace qec::cluster {
namespace {

namespace oracle {

// The sparse vector arithmetic, as SparseVector implemented it.
class Vec {
 public:
  using Entries = std::vector<std::pair<TermId, double>>;

  Vec() = default;
  explicit Vec(const SparseVector& v)
      : entries_(v.entries().begin(), v.entries().end()) {}

  double Dot(const Vec& other) const {
    double sum = 0.0;
    size_t a = 0, b = 0;
    while (a < entries_.size() && b < other.entries_.size()) {
      if (entries_[a].first < other.entries_[b].first) {
        ++a;
      } else if (other.entries_[b].first < entries_[a].first) {
        ++b;
      } else {
        sum += entries_[a].second * other.entries_[b].second;
        ++a;
        ++b;
      }
    }
    return sum;
  }

  double Norm() const {
    double sq = 0.0;
    for (const auto& [t, w] : entries_) sq += w * w;
    return std::sqrt(sq);
  }

  double Cosine(const Vec& other) const {
    double na = Norm();
    double nb = other.Norm();
    if (na == 0.0 || nb == 0.0) return 0.0;
    return Dot(other) / (na * nb);
  }

  void AddScaled(const Vec& other, double scale) {
    Entries merged;
    merged.reserve(entries_.size() + other.entries_.size());
    size_t a = 0, b = 0;
    while (a < entries_.size() || b < other.entries_.size()) {
      if (b >= other.entries_.size() ||
          (a < entries_.size() &&
           entries_[a].first < other.entries_[b].first)) {
        merged.push_back(entries_[a++]);
      } else if (a >= entries_.size() ||
                 other.entries_[b].first < entries_[a].first) {
        merged.emplace_back(other.entries_[b].first,
                            scale * other.entries_[b].second);
        ++b;
      } else {
        double w = entries_[a].second + scale * other.entries_[b].second;
        if (w != 0.0) merged.emplace_back(entries_[a].first, w);
        ++a;
        ++b;
      }
    }
    entries_ = std::move(merged);
  }

  void Scale(double scale) {
    for (auto& [t, w] : entries_) w *= scale;
  }

  void Normalize() {
    double n = Norm();
    if (n > 0.0) Scale(1.0 / n);
  }

 private:
  Entries entries_;
};

double CosineDistance(const Vec& a, const Vec& b) { return 1.0 - a.Cosine(b); }

std::vector<size_t> SeedPlusPlus(const std::vector<Vec>& points, size_t k,
                                 Rng& rng) {
  std::vector<size_t> seeds;
  seeds.push_back(static_cast<size_t>(rng.UniformInt(points.size())));
  std::vector<double> best_dist(points.size(),
                                std::numeric_limits<double>::infinity());
  while (seeds.size() < k) {
    const Vec& last = points[seeds.back()];
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      double d = CosineDistance(points[i], last);
      best_dist[i] = std::min(best_dist[i], d * d);
      total += best_dist[i];
    }
    if (total <= 0.0) {
      size_t next = seeds.size() % points.size();
      seeds.push_back(next);
      continue;
    }
    double target = rng.UniformDouble() * total;
    size_t chosen = points.size() - 1;
    double acc = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
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

Clustering ClusterWithK(const std::vector<Vec>& points, size_t k_arg,
                        const KMeansOptions& options) {
  Clustering result;
  const size_t n = points.size();
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

  Rng rng(options.seed);
  std::vector<size_t> seeds = SeedPlusPlus(points, k, rng);
  std::vector<Vec> centroids;
  centroids.reserve(k);
  for (size_t s : seeds) {
    Vec c = points[s];
    c.Normalize();
    centroids.push_back(std::move(c));
  }

  std::vector<int> assignment(n, -1);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < centroids.size(); ++c) {
        double d = CosineDistance(points[i], centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = static_cast<int>(c);
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    std::vector<Vec> next(centroids.size());
    std::vector<size_t> counts(centroids.size(), 0);
    for (size_t i = 0; i < n; ++i) {
      size_t c = static_cast<size_t>(assignment[i]);
      next[c].AddScaled(points[i], 1.0);
      counts[c]++;
    }
    for (size_t c = 0; c < next.size(); ++c) {
      if (counts[c] == 0) {
        next[c] = centroids[c];
      } else {
        next[c].Normalize();
      }
    }
    centroids = std::move(next);
  }

  std::vector<int> remap(centroids.size(), -1);
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

double MeanSilhouette(const std::vector<Vec>& points,
                      const Clustering& clustering) {
  const size_t n = points.size();
  if (n == 0 || clustering.num_clusters < 2) return 0.0;
  const size_t k = clustering.num_clusters;

  std::vector<size_t> cluster_size(k, 0);
  for (int a : clustering.assignment) {
    cluster_size[static_cast<size_t>(a)]++;
  }

  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t own = static_cast<size_t>(clustering.assignment[i]);
    if (cluster_size[own] <= 1) continue;
    std::vector<double> dist_sum(k, 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      dist_sum[static_cast<size_t>(clustering.assignment[j])] +=
          CosineDistance(points[i], points[j]);
    }
    const double a =
        dist_sum[own] / static_cast<double>(cluster_size[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      if (c == own || cluster_size[c] == 0) continue;
      b = std::min(b, dist_sum[c] / static_cast<double>(cluster_size[c]));
    }
    if (std::isinf(b)) continue;  // no other non-empty cluster: scores 0
    const double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return total / static_cast<double>(n);
}

Clustering KMeansCluster(const std::vector<Vec>& points,
                         const KMeansOptions& options) {
  const size_t n = points.size();
  const size_t k_max = std::min(options.k == 0 ? size_t{1} : options.k, n);
  if (!options.auto_k || n <= 2 || k_max <= 1) {
    return ClusterWithK(points, k_max, options);
  }
  Clustering best = ClusterWithK(points, 1, options);
  double best_score = 0.0;
  for (size_t k = 2; k <= k_max; ++k) {
    Clustering candidate = ClusterWithK(points, k, options);
    if (candidate.num_clusters < 2) continue;
    double score = MeanSilhouette(points, candidate);
    if (score > best_score + 1e-12) {
      best_score = score;
      best = std::move(candidate);
    }
  }
  return best;
}

class Agglomerator {
 public:
  explicit Agglomerator(const std::vector<Vec>& points)
      : n_(points.size()),
        active_(n_, true),
        active_count_(n_),
        size_(n_, 1),
        dist_(n_ * n_, 0.0) {
    for (size_t i = 0; i < n_; ++i) {
      for (size_t j = i + 1; j < n_; ++j) {
        double d = 1.0 - points[i].Cosine(points[j]);
        dist_[i * n_ + j] = d;
        dist_[j * n_ + i] = d;
      }
    }
    members_.resize(n_);
    for (size_t i = 0; i < n_; ++i) members_[i] = {i};
  }

  size_t num_active() const { return active_count_; }

  bool MergeClosest() {
    if (active_count_ < 2) return false;
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

Clustering CutAt(const std::vector<Vec>& points, size_t k) {
  Clustering result;
  const size_t n = points.size();
  if (n == 0) {
    return result;
  }
  Agglomerator agg(points);
  while (agg.num_active() > std::max<size_t>(1, k)) {
    if (!agg.MergeClosest()) break;
  }
  return agg.Snapshot();
}

Clustering HacCluster(const std::vector<Vec>& points,
                      const HacOptions& options) {
  const size_t n = points.size();
  const size_t k_max = std::min(options.k == 0 ? size_t{1} : options.k,
                                std::max<size_t>(n, 1));
  if (!options.auto_k || n <= 2 || k_max <= 1) {
    return CutAt(points, k_max);
  }
  Agglomerator agg(points);
  while (agg.num_active() > k_max) {
    if (!agg.MergeClosest()) break;
  }
  Clustering best = agg.Snapshot();
  double best_score = best.num_clusters >= 2 ? MeanSilhouette(points, best)
                                             : 0.0;
  while (agg.num_active() > 2) {
    if (!agg.MergeClosest()) break;
    Clustering cut = agg.Snapshot();
    double score = MeanSilhouette(points, cut);
    if (score > best_score + 1e-12) {
      best_score = score;
      best = std::move(cut);
    }
  }
  if (best_score <= 0.0) {
    Clustering one;
    one.assignment.assign(n, 0);
    one.num_clusters = 1;
    return one;
  }
  return best;
}

// SelectBestClustering's choice between the two auto-k winners.
ClusteringMethod SelectBest(const std::vector<Vec>& points,
                            const Clustering& kmeans, const Clustering& hac) {
  const double kmeans_score =
      kmeans.num_clusters >= 2 ? MeanSilhouette(points, kmeans) : 0.0;
  const double hac_score =
      hac.num_clusters >= 2 ? MeanSilhouette(points, hac) : 0.0;
  return hac_score > kmeans_score ? ClusteringMethod::kHac
                                  : ClusteringMethod::kKMeans;
}

}  // namespace oracle

// ------------------------------------------------------------------ inputs

std::vector<SparseVector> Vectorize(const doc::Corpus& corpus,
                                    const std::vector<DocId>& docs) {
  std::vector<SparseVector> points;
  for (DocId d : docs) {
    points.push_back(SparseVector::FromDocument(corpus.Get(d)));
  }
  return points;
}

std::vector<DocId> ResultDocs(const index::InvertedIndex& index,
                              const std::vector<TermId>& terms, size_t top_k) {
  std::vector<DocId> docs;
  for (const auto& r : index.Search(terms, top_k)) docs.push_back(r.doc);
  return docs;
}

// All results of the shopping catalog term with the most results, in rank
// order (at products_per_family = 30, as in fig6, more than 300).
std::vector<SparseVector> ShoppingAllResults() {
  datagen::ShoppingOptions options;
  options.products_per_family = 30;
  const doc::Corpus corpus = datagen::ShoppingGenerator(options).Generate();
  const index::InvertedIndex index(corpus);
  TermId best = 0;
  for (TermId t = 0; t < corpus.analyzer().vocabulary().size(); ++t) {
    if (index.DocumentFrequency(t) > index.DocumentFrequency(best)) best = t;
  }
  return Vectorize(corpus, ResultDocs(index, {best}, 0));
}

// The top-30 results of every Wikipedia Table 1 query, concatenated: n <= 30
// is one query's list, larger n mixes the lists of several.
std::vector<SparseVector> WikipediaTop30() {
  const doc::Corpus corpus = datagen::WikipediaGenerator().Generate();
  const index::InvertedIndex index(corpus);
  std::vector<SparseVector> points;
  for (const auto& q : datagen::WikipediaQueries()) {
    auto docs =
        ResultDocs(index, corpus.analyzer().AnalyzeReadOnly(q.text), 30);
    auto vectors = Vectorize(corpus, docs);
    points.insert(points.end(), vectors.begin(), vectors.end());
  }
  return points;
}

// The first documents of a small `clustered:` corpus (topics interleaved).
std::vector<SparseVector> ClusteredDocs() {
  datagen::ClusteredOptions options;
  options.num_docs = 300;
  options.num_clusters = 6;
  options.shared_vocab = 400;
  const doc::Corpus corpus = datagen::ClusteredGenerator(options).Generate();
  std::vector<DocId> docs;
  for (DocId d = 0; d < corpus.NumDocs(); ++d) docs.push_back(d);
  return Vectorize(corpus, docs);
}

// Random sparse vectors over a small vocabulary with real and signed
// weights (cancellations in centroid sums), about 5% zero vectors and
// about 10% exact duplicates.
std::vector<SparseVector> RandomVectors() {
  Rng rng(2011);
  std::vector<SparseVector> points;
  while (points.size() < 300) {
    if (!points.empty() && rng.Bernoulli(0.1)) {
      points.push_back(points[rng.UniformInt(points.size())]);
      continue;
    }
    std::vector<std::pair<TermId, double>> entries;
    if (!rng.Bernoulli(0.05)) {
      const size_t nnz = 1 + rng.UniformInt(10);
      for (size_t e = 0; e < nnz; ++e) {
        double w = 0.25 + 3.0 * rng.UniformDouble();
        if (rng.Bernoulli(0.2)) w = -w;
        entries.emplace_back(static_cast<TermId>(rng.UniformInt(40)), w);
      }
    }
    points.push_back(SparseVector(std::move(entries)));
  }
  return points;
}

// Scaled copies of a few one-term vectors: each point's cosine with its
// copies is exactly 1, so once every group holds a seed the k-means++
// distance total is 0 (the `total <= 0` seeding branch).
std::vector<SparseVector> Duplicates() {
  Rng rng(7);
  std::vector<SparseVector> points;
  while (points.size() < 300) {
    const auto t = static_cast<TermId>(rng.UniformInt(3));
    const double w = static_cast<double>(1 + rng.UniformInt(4));
    points.push_back(SparseVector({{t, w}}));
  }
  return points;
}

struct Source {
  std::string name;
  std::vector<SparseVector> (*make)();
};

void PrintTo(const Source& source, std::ostream* os) { *os << source.name; }

const std::vector<SparseVector>& Points(const Source& source) {
  static auto* cache =
      new std::vector<std::pair<std::string, std::vector<SparseVector>>>();
  for (const auto& [name, points] : *cache) {
    if (name == source.name) return points;
  }
  cache->emplace_back(source.name, source.make());
  return cache->back().second;
}

const Source kWikipedia = {"Wikipedia", WikipediaTop30};
const Source kOtherSources[] = {
    {"Shopping", ShoppingAllResults},
    {"Clustered", ClusteredDocs},
    {"Random", RandomVectors},
    {"Duplicates", Duplicates},
};
const size_t kSizesTo108[] = {0, 1, 2, 3, 7, 8, 9, 16, 17, 30, 108};

// ------------------------------------------------------------------- tests

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectSameClustering(const Clustering& got, const Clustering& want,
                          const std::string& what) {
  EXPECT_EQ(got.num_clusters, want.num_clusters) << what;
  EXPECT_EQ(got.assignment, want.assignment) << what;
}

class ClusterOracleTest
    : public ::testing::TestWithParam<std::tuple<Source, size_t>> {
 protected:
  void SetUp() override {
    const auto& [source, n] = GetParam();
    const std::vector<SparseVector>& all = Points(source);
    ASSERT_GE(all.size(), n) << source.name;
    name_ = source.name + " n=" + std::to_string(n);
    points_.assign(all.begin(), all.begin() + n);
    vecs_ = std::vector<oracle::Vec>(points_.begin(), points_.end());
  }

  // Runs k-means and HAC (fixed and auto-k) and SelectBestClustering with
  // each bound in `bounds` against the oracle with `oracle_bound`.
  void ExpectMatchesOracle(size_t oracle_bound,
                           std::initializer_list<size_t> bounds) {
    Clustering want_kmeans[2], want_hac[2];
    for (bool auto_k : {false, true}) {
      want_kmeans[auto_k] = oracle::KMeansCluster(
          vecs_, KMeansOptions{.k = oracle_bound, .auto_k = auto_k});
      want_hac[auto_k] = oracle::HacCluster(
          vecs_, HacOptions{.k = oracle_bound, .auto_k = auto_k});
    }
    const ClusteringMethod want_method =
        oracle::SelectBest(vecs_, want_kmeans[1], want_hac[1]);
    for (size_t k_max : bounds) {
      for (bool auto_k : {false, true}) {
        const std::string what = name_ + " k_max=" + std::to_string(k_max) +
                                 (auto_k ? " auto" : " fixed");
        const Clustering kmeans =
            KMeans(KMeansOptions{.k = k_max, .auto_k = auto_k})
                .Cluster(points_);
        ExpectSameClustering(kmeans, want_kmeans[auto_k], "kmeans " + what);
        ExpectSameSilhouette(kmeans, "kmeans " + what);
        const Clustering hac =
            Hac(HacOptions{.k = k_max, .auto_k = auto_k}).Cluster(points_);
        ExpectSameClustering(hac, want_hac[auto_k], "hac " + what);
        ExpectSameSilhouette(hac, "hac " + what);
      }
      ClusteringMethod chosen;
      const Clustering best =
          SelectBestClustering(points_, k_max, 42, &chosen);
      const std::string what = name_ + " k_max=" + std::to_string(k_max);
      EXPECT_EQ(chosen, want_method) << what;
      ExpectSameClustering(best,
                           want_method == ClusteringMethod::kHac
                               ? want_hac[1]
                               : want_kmeans[1],
                           "select " + what);
    }
  }

  void ExpectSameSilhouette(const Clustering& clustering,
                            const std::string& what) {
    const double got = MeanSilhouette(points_, clustering);
    const double want = oracle::MeanSilhouette(vecs_, clustering);
    EXPECT_TRUE(BitEqual(got, want))
        << what << ": " << got << " vs oracle " << want;
  }

  std::string name_;
  std::vector<SparseVector> points_;
  std::vector<oracle::Vec> vecs_;
};

TEST_P(ClusterOracleTest, SmallBoundsMatchOracle) {
  for (size_t k_max : {1, 2, 5, 8}) ExpectMatchesOracle(k_max, {k_max});
}

TEST_P(ClusterOracleTest, SilhouetteOfArbitraryLabelingsMatchesOracle) {
  // Labelings no clusterer produces: random labels over more clusters than
  // are used, so some clusters are empty and many points are singletons.
  const size_t n = points_.size();
  Rng rng(n + 1);
  for (size_t k : {size_t{1}, size_t{2}, size_t{4}, n / 2 + 1, n + 2}) {
    Clustering labels;
    labels.num_clusters = k;
    for (size_t i = 0; i < n; ++i) {
      labels.assignment.push_back(static_cast<int>(rng.UniformInt(k)));
    }
    ExpectSameSilhouette(labels, name_ + " labels k=" + std::to_string(k));
  }
  // Two clusters declared, one used: no point has a nearest other cluster,
  // so every point scores 0, like a singleton.
  Clustering one_used;
  one_used.num_clusters = 2;
  one_used.assignment.assign(n, 0);
  ExpectSameSilhouette(one_used, name_ + " one of two clusters used");
  EXPECT_EQ(MeanSilhouette(points_, one_used), 0.0) << name_;
}

// Bounds n and n + 3 make auto-k run k-means for every k < n. At n = 300
// the sparse oracle alone takes ~15 s optimized, and more than the 300 s
// ctest timeout unoptimized (the coverage build), so these bounds stop at
// n = 108.
class ClusterOracleBoundNTest : public ClusterOracleTest {};

TEST_P(ClusterOracleBoundNTest, BoundsFromNMatchOracle) {
  // Every clusterer clamps its bound to n, so the oracle's answer for n + 3
  // is its answer for n; the kernel is run at both.
  const size_t n = points_.size();
  ExpectMatchesOracle(n, {n, n + 3});
}

std::string ParamName(
    const ::testing::TestParamInfo<ClusterOracleTest::ParamType>& info) {
  return std::get<0>(info.param).name + "_n" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, ClusterOracleTest,
    ::testing::Combine(::testing::ValuesIn(kOtherSources),
                       ::testing::Values(0, 1, 2, 3, 30, 108, 300)),
    ParamName);
// Wikipedia's ten top-30 lists hold fewer than 300 results in all.
INSTANTIATE_TEST_SUITE_P(
    Wikipedia, ClusterOracleTest,
    ::testing::Combine(::testing::Values(kWikipedia),
                       ::testing::ValuesIn(kSizesTo108)),
    ParamName);
INSTANTIATE_TEST_SUITE_P(
    Inputs, ClusterOracleBoundNTest,
    ::testing::Combine(::testing::ValuesIn(kOtherSources),
                       ::testing::ValuesIn(kSizesTo108)),
    ParamName);
INSTANTIATE_TEST_SUITE_P(
    Wikipedia, ClusterOracleBoundNTest,
    ::testing::Combine(::testing::Values(kWikipedia),
                       ::testing::ValuesIn(kSizesTo108)),
    ParamName);

}  // namespace
}  // namespace qec::cluster
