// Ranked search against its definition. InvertedIndex::Search scores from
// the posting lists and keeps the top k with a partial sort; these suites
// check it against the plain formulation it replaced: EvaluateAnd, then
// TfIdfScore for every match (which reads the Document, not the postings),
// then a full sort, then truncation. Scores must match byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "datagen/clustered.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"

namespace qec {
namespace {

using index::InvertedIndex;
using index::RankedResult;

std::vector<RankedResult> SortAndTruncate(const InvertedIndex& index,
                                          std::vector<RankedResult> all,
                                          size_t top_k) {
  std::sort(all.begin(), all.end(),
            [&](const RankedResult& a, const RankedResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return index.ExternalId(a.doc) < index.ExternalId(b.doc);
            });
  if (top_k > 0 && all.size() > top_k) all.resize(top_k);
  return all;
}

std::vector<RankedResult> ReferenceSearch(const InvertedIndex& index,
                                          const std::vector<TermId>& terms,
                                          size_t top_k) {
  std::vector<RankedResult> all;
  for (DocId d : index.EvaluateAnd(terms)) {
    all.push_back(RankedResult{d, index.TfIdfScore(terms, d)});
  }
  return SortAndTruncate(index, std::move(all), top_k);
}

/// Same documents in the same order, and every score equal bit for bit.
void ExpectIdentical(const std::vector<RankedResult>& got,
                     const std::vector<RankedResult>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    ASSERT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
        << what << " rank " << i << ": " << got[i].score
        << " != " << want[i].score;
  }
}

std::string Describe(const std::vector<TermId>& terms, size_t top_k) {
  std::string out = "terms [";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(terms[i]);
  }
  return out + "] top_k " + std::to_string(top_k);
}

/// 0, 1, 30 and around the match count n.
std::vector<size_t> TopKs(size_t n) {
  std::vector<size_t> ks = {0, 1, 30, n + 1, n};
  if (n >= 1) ks.push_back(n - 1);
  return ks;
}

enum class CorpusKind { kShopping, kWikipedia, kClustered };

struct Dataset {
  doc::Corpus corpus;
  std::unique_ptr<InvertedIndex> index;
};

doc::Corpus MakeCorpus(CorpusKind kind) {
  switch (kind) {
    case CorpusKind::kShopping:
      return datagen::ShoppingGenerator().Generate();
    case CorpusKind::kWikipedia:
      return datagen::WikipediaGenerator().Generate();
    case CorpusKind::kClustered: {
      datagen::ClusteredOptions options;
      options.num_docs = 3000;
      options.num_clusters = 8;
      options.shared_vocab = 400;
      return datagen::ClusteredGenerator(options).Generate();
    }
  }
  return doc::Corpus();
}

const Dataset& GetDataset(CorpusKind kind) {
  static Dataset* datasets[3] = {nullptr, nullptr, nullptr};
  Dataset*& slot = datasets[static_cast<int>(kind)];
  if (slot == nullptr) {
    slot = new Dataset{MakeCorpus(kind), nullptr};
    slot->index = std::make_unique<InvertedIndex>(slot->corpus);
  }
  return *slot;
}

/// Seeded queries that mostly match: 1-3 distinct terms of one random
/// document, sometimes with a term repeated (anywhere in the query) or an
/// unknown term mixed in, plus the empty query.
std::vector<std::vector<TermId>> MakeQueries(const doc::Corpus& corpus,
                                             uint64_t seed, size_t count) {
  Rng rng(seed);
  const TermId unknown =
      static_cast<TermId>(corpus.analyzer().vocabulary().size() + 3);
  std::vector<std::vector<TermId>> queries = {{}};
  while (queries.size() < count) {
    const auto& term_set =
        corpus.Get(static_cast<DocId>(rng.UniformInt(corpus.NumDocs())))
            .term_set();
    if (term_set.empty()) continue;
    std::vector<TermId> terms;
    const size_t width = 1 + rng.UniformInt(3);
    for (size_t i = 0; i < width; ++i) {
      terms.push_back(term_set[rng.UniformInt(term_set.size())]);
    }
    if (rng.UniformInt(4) == 0) {
      terms.insert(terms.begin() + rng.UniformInt(terms.size() + 1),
                   terms[rng.UniformInt(terms.size())]);
    }
    if (rng.UniformInt(10) == 0) {
      terms.insert(terms.begin() + rng.UniformInt(terms.size() + 1), unknown);
    }
    queries.push_back(std::move(terms));
  }
  return queries;
}

class RankedSearchProperty
    : public ::testing::TestWithParam<std::tuple<CorpusKind, uint64_t>> {
 protected:
  const Dataset& dataset() const {
    return GetDataset(std::get<0>(GetParam()));
  }
  std::vector<std::vector<TermId>> Queries() const {
    return MakeQueries(dataset().corpus, std::get<1>(GetParam()), 40);
  }
};

TEST_P(RankedSearchProperty, MatchesScoreSortTruncateReference) {
  const InvertedIndex& index = *dataset().index;
  size_t tied_queries = 0;
  size_t repeated_term_queries = 0;
  for (const auto& terms : Queries()) {
    const std::vector<RankedResult> all = ReferenceSearch(index, terms, 0);
    for (size_t i = 1; i < all.size(); ++i) {
      if (all[i].score == all[i - 1].score) {
        ++tied_queries;
        break;
      }
    }
    std::vector<TermId> distinct = terms;
    std::sort(distinct.begin(), distinct.end());
    if (std::unique(distinct.begin(), distinct.end()) != distinct.end()) {
      ++repeated_term_queries;
    }
    for (size_t top_k : TopKs(all.size())) {
      ExpectIdentical(index.Search(terms, top_k),
                      ReferenceSearch(index, terms, top_k),
                      Describe(terms, top_k));
    }
  }
  // The seeded queries must exercise what the partial sort could get wrong.
  EXPECT_GT(tied_queries, 0u);
  EXPECT_GT(repeated_term_queries, 0u);
}

TEST_P(RankedSearchProperty, PermutedExternalIdsMatchReference) {
  const doc::Corpus& corpus = dataset().corpus;
  InvertedIndex index(corpus);
  std::vector<DocId> ids(corpus.NumDocs());
  std::iota(ids.begin(), ids.end(), DocId{0});
  Rng rng(std::get<1>(GetParam()) * 7919 + 1);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.UniformInt(i)]);
  }
  index.SetExternalIds(ids);
  for (const auto& terms : Queries()) {
    const size_t n = index.EvaluateAnd(terms).size();
    for (size_t top_k : TopKs(n)) {
      ExpectIdentical(index.Search(terms, top_k),
                      ReferenceSearch(index, terms, top_k),
                      Describe(terms, top_k));
    }
  }
}

TEST_P(RankedSearchProperty, EvaluateAndMatchesDocumentScan) {
  const Dataset& data = dataset();
  for (const auto& terms : Queries()) {
    std::vector<DocId> want;
    for (DocId d = 0; d < data.corpus.NumDocs(); ++d) {
      const doc::Document& doc = data.corpus.Get(d);
      if (std::all_of(terms.begin(), terms.end(), [&](TermId t) {
            return doc.TermFrequency(t) > 0;
          })) {
        want.push_back(d);
      }
    }
    EXPECT_EQ(data.index->EvaluateAnd(terms), want) << Describe(terms, 0);
  }
}

TEST_P(RankedSearchProperty, VsmAndBm25TopKIsTheirFullSortTruncated) {
  const InvertedIndex& index = *dataset().index;
  for (const auto& terms : Queries()) {
    const std::vector<RankedResult> vsm = index.SearchVsm(terms, 0);
    const std::vector<RankedResult> bm25 = index.SearchBm25(terms, 0);
    for (size_t top_k : TopKs(vsm.size())) {
      ExpectIdentical(index.SearchVsm(terms, top_k),
                      SortAndTruncate(index, vsm, top_k),
                      "VSM " + Describe(terms, top_k));
    }
    for (size_t top_k : TopKs(bm25.size())) {
      ExpectIdentical(index.SearchBm25(terms, top_k),
                      SortAndTruncate(index, bm25, top_k),
                      "BM25 " + Describe(terms, top_k));
    }
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<CorpusKind, uint64_t>>& info) {
  static const char* const kNames[] = {"Shopping", "Wikipedia", "Clustered"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, RankedSearchProperty,
    ::testing::Combine(::testing::Values(CorpusKind::kShopping,
                                         CorpusKind::kWikipedia,
                                         CorpusKind::kClustered),
                       ::testing::Values(uint64_t{1}, uint64_t{2})),
    CaseName);

// ------------------------------------------------------- repeated terms --

class RankedSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_.AddTextDocument("0", "apple banana");
    corpus_.AddTextDocument("1", "apple banana cherry banana");
    corpus_.AddTextDocument("2", "cherry");
    index_ = std::make_unique<InvertedIndex>(corpus_);
  }
  TermId T(const std::string& word) const {
    return corpus_.analyzer().AnalyzeReadOnly(word).at(0);
  }

  doc::Corpus corpus_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(RankedSearchTest, RepeatedTermWithTiedDfIsMergedOnce) {
  // df(apple) == df(banana), so a sort on df alone can leave the two
  // apples apart, and deduplication then misses one of them.
  const TermId apple = T("apple");
  const TermId banana = T("banana");
  ASSERT_EQ(index_->DocumentFrequency(apple), index_->DocumentFrequency(banana));
  const std::vector<TermId> repeated = {apple, banana, apple};
  const std::vector<TermId> distinct = {apple, banana};
  EXPECT_EQ(index_->EvaluateAnd(repeated), index_->EvaluateAnd(distinct));
  for (size_t top_k : {0, 1, 2}) {
    ExpectIdentical(index_->Search(repeated, top_k),
                    ReferenceSearch(*index_, repeated, top_k),
                    Describe(repeated, top_k));
  }
#ifndef QEC_DISABLE_TRACING
  obs::Counter* scanned =
      obs::MetricsRegistry::Global().GetCounter("index/postings_scanned");
  const uint64_t before_distinct = scanned->value();
  index_->Search(distinct);
  const uint64_t distinct_work = scanned->value() - before_distinct;
  const uint64_t before_repeated = scanned->value();
  index_->Search(repeated);
  EXPECT_EQ(scanned->value() - before_repeated, distinct_work);
  // Two 2-entry lists: the first list plus two merge steps.
  EXPECT_EQ(distinct_work, 4u);
#endif
}

TEST_F(RankedSearchTest, IdfTableMatchesItsFormula) {
  const double n = static_cast<double>(corpus_.NumDocs());
  for (TermId t = 0; t < corpus_.analyzer().vocabulary().size(); ++t) {
    const double df = static_cast<double>(index_->DocumentFrequency(t));
    const double want = std::log(1.0 + n / df);
    const double got = index_->Idf(t);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << t;
  }
  const double unknown = index_->Idf(9999);
  const double want_unknown = std::log(1.0 + n);
  EXPECT_EQ(std::memcmp(&unknown, &want_unknown, sizeof(double)), 0);
}

}  // namespace
}  // namespace qec
