#include "cluster/cosine_space.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

namespace qec::cluster {

namespace {

// Dot products of points [first, last) with all K columns of a
// term-major matrix, one pass over each point's terms. K is a compile-time
// constant so the K sums stay in registers; each adds its column's
// products in ascending term order, starting from +0.0.
template <size_t K>
void Dots(const TermRows& rows, size_t first, size_t last,
          const double* columns, double* out) {
  for (size_t i = first; i < last; ++i, out += K) {
    double sum[K] = {};
    for (uint32_t e = rows.begin[i]; e < rows.begin[i + 1]; ++e) {
      const double weight = rows.weight[e];
      const double* row = columns + size_t{rows.term[e]} * K;
      for (size_t c = 0; c < K; ++c) sum[c] += weight * row[c];
    }
    std::copy(sum, sum + K, out);
  }
}

}  // namespace

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

CosineSpace::CosineSpace(const TermRows& rows) : rows_(rows) {
  norms_.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    // The norm adds its squares in ascending term order, as
    // SparseVector::Norm does.
    double sq = 0.0;
    for (uint32_t e = rows.begin[i]; e < rows.begin[i + 1]; ++e) {
      sq += rows.weight[e] * rows.weight[e];
    }
    norms_.push_back(std::sqrt(sq));
  }
}

void CosineSpace::CentroidDistances(size_t first, size_t last,
                                    const double* columns,
                                    const double* column_norms, size_t k,
                                    double* out) const {
  using DotsFn = void (*)(const TermRows&, size_t, size_t, const double*,
                          double*);
  static constexpr DotsFn kDots[] = {nullptr, Dots<1>, Dots<2>, Dots<3>,
                                     Dots<4>, Dots<5>, Dots<6>, Dots<7>,
                                     Dots<8>};
  if (k != 0 && k < std::size(kDots)) {
    kDots[k](rows_, first, last, columns, out);
  } else {
    for (size_t i = first; i < last; ++i) {
      for (size_t c = 0; c < k; ++c) {
        double dot = 0.0;
        for (uint32_t e = rows_.begin[i]; e < rows_.begin[i + 1]; ++e) {
          dot += rows_.weight[e] * columns[size_t{rows_.term[e]} * k + c];
        }
        out[(i - first) * k + c] = dot;
      }
    }
  }
  // 1 - cosine similarity, with no branch so the division vectorizes.
  // Against a zero vector it divides by zero; the distance there is 1.
  for (size_t i = first; i < last; ++i, out += k) {
    const double norm_i = norms_[i];
    for (size_t c = 0; c < k; ++c) {
      out[c] = 1.0 - out[c] / (norm_i * column_norms[c]);
    }
    for (size_t c = 0; c < k; ++c) {
      if (norm_i == 0.0 || column_norms[c] == 0.0) out[c] = 1.0;
    }
  }
}

void CosineSpace::AddTo(size_t i, double* columns, size_t k, size_t c,
                        double scale) const {
  for (uint32_t e = rows_.begin[i]; e < rows_.begin[i + 1]; ++e) {
    columns[size_t{rows_.term[e]} * k + c] += rows_.weight[e] * scale;
  }
}

void CosineSpace::PointDistances(size_t first, size_t count, size_t from,
                                 double* tile, double* out) const {
  for (size_t c = 0; c < count; ++c) AddTo(first + c, tile, count, c);
  CentroidDistances(from, size(), tile, &norms_[first], count, out);
  for (size_t c = 0; c < count; ++c) {
    for (uint32_t e = rows_.begin[first + c]; e < rows_.begin[first + c + 1];
         ++e) {
      tile[size_t{rows_.term[e]} * count + c] = 0.0;
    }
  }
}

}  // namespace qec::cluster
