#include "cluster/cosine_space.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace qec::cluster {

namespace {

// 1 - cosine similarity; 1 when either vector is zero.
double CosineDistance(double dot, double norm_a, double norm_b) {
  if (norm_a == 0.0 || norm_b == 0.0) return 1.0;
  return 1.0 - dot / (norm_a * norm_b);
}

// Dot products of one point against all K columns of a term-major
// centroid matrix, in one pass over the point's terms. K is a compile-time
// constant so the K sums stay in registers; each adds its column's
// products in ascending term order, starting from +0.0.
template <size_t K>
void CentroidDots(const uint32_t* term, const double* weight, size_t len,
                  const double* centroids, double* dots) {
  double sum[K] = {};
  for (size_t e = 0; e < len; ++e) {
    const double* row = centroids + size_t{term[e]} * K;
    for (size_t c = 0; c < K; ++c) sum[c] += weight[e] * row[c];
  }
  std::copy(sum, sum + K, dots);
}

// Rows of sparse vectors over their terms' local ids.
TermRows RowsOf(const std::vector<SparseVector>& points) {
  TermRanks ranks;
  size_t nnz = 0;
  for (const SparseVector& p : points) {
    for (const auto& [t, w] : p.entries()) ranks.Insert(t);
    nnz += p.NumNonZero();
  }
  ranks.Seal();
  TermRows rows;
  rows.dims = ranks.size();
  rows.begin.reserve(points.size() + 1);
  rows.term.reserve(nnz);
  rows.weight.reserve(nnz);
  for (const SparseVector& p : points) {
    // Each point's entries are sorted by TermId, so its local ids ascend.
    for (const auto& [t, w] : p.entries()) {
      rows.term.push_back(ranks.Rank(t));
      rows.weight.push_back(w);
    }
    rows.begin.push_back(static_cast<uint32_t>(rows.term.size()));
  }
  return rows;
}

}  // namespace

void TermRanks::Seal() {
  below_.assign(present_.size() + 1, 0);
  for (size_t w = 0; w < present_.size(); ++w) {
    below_[w + 1] =
        below_[w] + static_cast<uint32_t>(std::popcount(present_[w]));
  }
}

std::vector<TermId> TermRanks::Terms() const {
  std::vector<TermId> terms;
  terms.reserve(size());
  for (size_t w = 0; w < present_.size(); ++w) {
    for (uint64_t word = present_[w]; word != 0; word &= word - 1) {
      terms.push_back(static_cast<TermId>(w * 64 + std::countr_zero(word)));
    }
  }
  return terms;
}

CosineSpace::CosineSpace(const std::vector<SparseVector>& points)
    : CosineSpace(RowsOf(points)) {}

CosineSpace::CosineSpace(TermRows rows)
    : point_begin_(std::move(rows.begin)),
      point_term_(std::move(rows.term)),
      point_weight_(std::move(rows.weight)) {
  const size_t n = point_begin_.size() - 1;
  const size_t nnz = point_term_.size();
  const size_t dims = rows.dims;
  norms_.reserve(n);
  term_begin_.assign(dims + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    // The norm adds its squares in ascending term order, as
    // SparseVector::Norm does.
    double sq = 0.0;
    for (uint32_t e = point_begin_[i]; e < point_begin_[i + 1]; ++e) {
      sq += point_weight_[e] * point_weight_[e];
      ++term_begin_[point_term_[e] + 1];
    }
    norms_.push_back(std::sqrt(sq));
  }
  // Postings, filled in ascending point order.
  for (size_t t = 0; t < dims; ++t) term_begin_[t + 1] += term_begin_[t];
  std::vector<uint32_t> fill(term_begin_.begin(), term_begin_.end() - 1);
  term_point_.resize(nnz);
  term_weight_.resize(nnz);
  point_pos_.resize(nnz);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t e = point_begin_[i]; e < point_begin_[i + 1]; ++e) {
      const uint32_t at = fill[point_term_[e]]++;
      point_pos_[e] = at;
      term_point_[at] = static_cast<uint32_t>(i);
      term_weight_[at] = point_weight_[e];
    }
  }
  // Dense columns for the terms held by at least half the points: at most
  // 2 * nnz doubles.
  term_column_.assign(dims, kNoColumn);
  size_t columns = 0;
  for (size_t t = 0; t < dims; ++t) {
    if (2 * (term_begin_[t + 1] - term_begin_[t]) >= n) {
      term_column_[t] = columns++ * n;
    }
  }
  columns_.assign(columns * n, 0.0);
  for (size_t t = 0; t < dims; ++t) {
    if (term_column_[t] == kNoColumn) continue;
    for (uint32_t p = term_begin_[t]; p < term_begin_[t + 1]; ++p) {
      columns_[term_column_[t] + term_point_[p]] = term_weight_[p];
    }
  }
}

void CosineSpace::DistanceRow(size_t i, double* out) const {
  const size_t n = size();
  std::fill(out, out + n, 0.0);
  const uint32_t* term_point = term_point_.data();
  const double* term_weight = term_weight_.data();
  for (uint32_t e = point_begin_[i]; e < point_begin_[i + 1]; ++e) {
    const double weight = point_weight_[e];
    const uint32_t end = term_begin_[point_term_[e] + 1];
    for (uint32_t p = term_begin_[point_term_[e]]; p < end; ++p) {
      out[term_point[p]] += weight * term_weight[p];
    }
  }
  for (size_t j = 0; j < n; ++j) {
    out[j] = CosineDistance(out[j], norms_[i], norms_[j]);
  }
}

void CosineSpace::DistanceRowAbove(size_t i, double* out) const {
  const size_t n = size();
  std::fill(out + i + 1, out + n, 0.0);
  const uint32_t* term_point = term_point_.data();
  const double* term_weight = term_weight_.data();
  for (uint32_t e = point_begin_[i]; e < point_begin_[i + 1]; ++e) {
    const double weight = point_weight_[e];
    if (term_column_[point_term_[e]] != kNoColumn) {  // every j > i, densely
      const double* column = columns_.data() + term_column_[point_term_[e]];
      for (size_t j = i + 1; j < n; ++j) out[j] += weight * column[j];
      continue;
    }
    // Postings ascend by point, so the ones after point i's are j > i.
    const uint32_t end = term_begin_[point_term_[e] + 1];
    for (uint32_t p = point_pos_[e] + 1; p < end; ++p) {
      out[term_point[p]] += weight * term_weight[p];
    }
  }
  for (size_t j = i + 1; j < n; ++j) {
    out[j] = CosineDistance(out[j], norms_[i], norms_[j]);
  }
}

void CosineSpace::CentroidDistances(size_t i, const double* centroids,
                                    const double* centroid_norms, size_t k,
                                    double* out) const {
  const uint32_t* term = point_term_.data() + point_begin_[i];
  const double* weight = point_weight_.data() + point_begin_[i];
  const size_t len = point_begin_[i + 1] - point_begin_[i];
  switch (k) {
    case 2: CentroidDots<2>(term, weight, len, centroids, out); break;
    case 3: CentroidDots<3>(term, weight, len, centroids, out); break;
    case 4: CentroidDots<4>(term, weight, len, centroids, out); break;
    case 5: CentroidDots<5>(term, weight, len, centroids, out); break;
    case 6: CentroidDots<6>(term, weight, len, centroids, out); break;
    case 7: CentroidDots<7>(term, weight, len, centroids, out); break;
    case 8: CentroidDots<8>(term, weight, len, centroids, out); break;
    default:
      for (size_t c = 0; c < k; ++c) {
        double dot = 0.0;
        for (size_t e = 0; e < len; ++e) {
          dot += weight[e] * centroids[size_t{term[e]} * k + c];
        }
        out[c] = dot;
      }
  }
  for (size_t c = 0; c < k; ++c) {
    out[c] = CosineDistance(out[c], norms_[i], centroid_norms[c]);
  }
}

void CosineSpace::AddTo(size_t i, double* centroids, size_t k,
                        size_t c) const {
  for (uint32_t e = point_begin_[i]; e < point_begin_[i + 1]; ++e) {
    centroids[size_t{point_term_[e]} * k + c] += point_weight_[e];
  }
}

}  // namespace qec::cluster
