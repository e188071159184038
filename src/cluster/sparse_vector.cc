#include "cluster/sparse_vector.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qec::cluster {

SparseVector::SparseVector(EntryList entries) : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Merge duplicates and drop explicit zeros.
  size_t out = 0;
  for (size_t i = 0; i < entries_.size();) {
    TermId t = entries_[i].first;
    double sum = 0.0;
    while (i < entries_.size() && entries_[i].first == t) {
      sum += entries_[i].second;
      ++i;
    }
    if (sum != 0.0) entries_[out++] = {t, sum};
  }
  entries_.resize(out);
}

SparseVector SparseVector::FromDocument(const doc::Document& document) {
  SparseVector v;
  const auto& terms = document.term_set();
  const auto& counts = document.term_counts();
  v.entries_.reserve(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    // term_set() is sorted & unique, so entries_ stays sorted.
    v.entries_.emplace_back(terms[i], static_cast<double>(counts[i]));
  }
  return v;
}

double SparseVector::Get(TermId term) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), term,
      [](const auto& e, TermId t) { return e.first < t; });
  if (it == entries_.end() || it->first != term) return 0.0;
  return it->second;
}

double SparseVector::Dot(const SparseVector& other) const {
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

double SparseVector::Norm() const {
  double sq = 0.0;
  for (const auto& [t, w] : entries_) sq += w * w;
  return std::sqrt(sq);
}

}  // namespace qec::cluster
