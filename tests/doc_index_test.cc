// Unit tests for qec_doc (documents, corpus) and qec_index (inverted index,
// boolean evaluation, TF-IDF ranking).

#include <gtest/gtest.h>

#include <cmath>

#include "doc/corpus.h"
#include "doc/document.h"
#include "index/inverted_index.h"

namespace qec {
namespace {

using doc::Corpus;
using doc::DocumentKind;
using doc::Feature;
using doc::FeatureToken;
using index::InvertedIndex;

// ---------------------------------------------------------------- Feature

TEST(FeatureTokenTest, LowercasesAndSquashesWhitespace) {
  EXPECT_EQ(FeatureToken({"TV", "Display Area", "42\""}),
            "tv:displayarea:42\"");
  EXPECT_EQ(FeatureToken({"Canon products", "category", "Camcorders"}),
            "canonproducts:category:camcorders");
}

// --------------------------------------------------------------- Document

TEST(DocumentTest, TermFrequencyAndContains) {
  Corpus corpus;
  DocId id = corpus.AddTextDocument("t", "apple apple store");
  const doc::Document& d = corpus.Get(id);
  EXPECT_EQ(d.kind(), DocumentKind::kText);
  EXPECT_EQ(d.length(), 3u);
  EXPECT_EQ(d.term_set().size(), 2u);
  TermId apple = corpus.analyzer().vocabulary().Lookup("apple");
  TermId store = corpus.analyzer().vocabulary().Lookup("store");
  EXPECT_EQ(d.TermFrequency(apple), 2);
  EXPECT_EQ(d.TermFrequency(store), 1);
  EXPECT_TRUE(d.Contains(apple));
  EXPECT_EQ(d.TermFrequency(apple + 1000), 0);
  EXPECT_FALSE(d.Contains(apple + 1000));
}

TEST(DocumentTest, TermSetSortedUnique) {
  Corpus corpus;
  DocId id = corpus.AddTextDocument("t", "zebra apple zebra mango apple");
  const auto& ts = corpus.Get(id).term_set();
  for (size_t i = 1; i < ts.size(); ++i) EXPECT_LT(ts[i - 1], ts[i]);
  EXPECT_EQ(ts.size(), 3u);
}

// ----------------------------------------------------------------- Corpus

TEST(CorpusTest, StructuredDocumentIndexesFeatureTokensAndWords) {
  Corpus corpus;
  DocId id = corpus.AddStructuredDocument(
      "canon powershot",
      {{"Canon products", "category", "camera"},
       {"camera", "brand", "canon"}});
  const doc::Document& d = corpus.Get(id);
  EXPECT_EQ(d.kind(), DocumentKind::kStructured);
  EXPECT_EQ(d.features().size(), 2u);
  const auto& vocab = corpus.analyzer().vocabulary();
  // Canonical feature tokens present.
  EXPECT_TRUE(d.Contains(vocab.Lookup("canonproducts:category:camera")));
  EXPECT_TRUE(d.Contains(vocab.Lookup("camera:brand:canon")));
  // Word tokens of entity/attribute/value present.
  EXPECT_TRUE(d.Contains(vocab.Lookup("canon")));
  EXPECT_TRUE(d.Contains(vocab.Lookup("products")));
  EXPECT_TRUE(d.Contains(vocab.Lookup("camera")));
}

TEST(CorpusTest, StatsAggregate) {
  Corpus corpus;
  corpus.AddTextDocument("a", "one two three");
  corpus.AddTextDocument("b", "one two");
  auto stats = corpus.Stats();
  EXPECT_EQ(stats.num_docs, 2u);
  EXPECT_EQ(stats.total_term_occurrences, 5u);
  EXPECT_DOUBLE_EQ(stats.avg_doc_length, 2.5);
  EXPECT_EQ(stats.num_distinct_terms, 3u);
}

TEST(CorpusTest, EmptyCorpusStats) {
  Corpus corpus;
  auto stats = corpus.Stats();
  EXPECT_EQ(stats.num_docs, 0u);
  EXPECT_DOUBLE_EQ(stats.avg_doc_length, 0.0);
}

// ---------------------------------------------------------- InvertedIndex

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() {
    d0_ = corpus_.AddTextDocument("0", "apple store city");
    d1_ = corpus_.AddTextDocument("1", "apple fruit orchard");
    d2_ = corpus_.AddTextDocument("2", "apple store store iphone");
    d3_ = corpus_.AddTextDocument("3", "banana fruit");
    index_ = std::make_unique<InvertedIndex>(corpus_);
  }

  TermId T(const std::string& w) const {
    return corpus_.analyzer().vocabulary().Lookup(w);
  }

  Corpus corpus_;
  DocId d0_, d1_, d2_, d3_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(IndexTest, DocumentFrequency) {
  EXPECT_EQ(index_->DocumentFrequency(T("apple")), 3u);
  EXPECT_EQ(index_->DocumentFrequency(T("store")), 2u);
  EXPECT_EQ(index_->DocumentFrequency(T("banana")), 1u);
  EXPECT_EQ(index_->DocumentFrequency(99999), 0u);
}

TEST_F(IndexTest, PostingsSortedWithTf) {
  const auto& p = index_->Postings(T("store"));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0].doc, d0_);
  EXPECT_EQ(p[0].tf, 1);
  EXPECT_EQ(p[1].doc, d2_);
  EXPECT_EQ(p[1].tf, 2);
}

TEST_F(IndexTest, EvaluateAndIntersects) {
  EXPECT_EQ(index_->EvaluateAnd({T("apple"), T("store")}),
            (std::vector<DocId>{d0_, d2_}));
  EXPECT_EQ(index_->EvaluateAnd({T("apple"), T("fruit")}),
            (std::vector<DocId>{d1_}));
  EXPECT_TRUE(index_->EvaluateAnd({T("apple"), T("banana")}).empty());
}

TEST_F(IndexTest, EvaluateAndEmptyQueryReturnsAll) {
  EXPECT_EQ(index_->EvaluateAnd({}).size(), 4u);
}

TEST_F(IndexTest, EvaluateAndDeduplicatesTerms) {
  EXPECT_EQ(index_->EvaluateAnd({T("store"), T("store")}),
            (std::vector<DocId>{d0_, d2_}));
}

TEST_F(IndexTest, EvaluateOrUnions) {
  EXPECT_EQ(index_->EvaluateOr({T("store"), T("banana")}),
            (std::vector<DocId>{d0_, d2_, d3_}));
  EXPECT_TRUE(index_->EvaluateOr({}).empty());
}

TEST_F(IndexTest, IdfDecreasesWithFrequency) {
  EXPECT_GT(index_->Idf(T("banana")), index_->Idf(T("apple")));
  // Unknown terms get the maximum idf.
  EXPECT_GE(index_->Idf(99999), index_->Idf(T("banana")));
}

TEST_F(IndexTest, TfIdfScoreSumsQueryTerms) {
  double apple_only = index_->TfIdfScore({T("apple")}, d2_);
  double both = index_->TfIdfScore({T("apple"), T("store")}, d2_);
  EXPECT_GT(both, apple_only);
  EXPECT_DOUBLE_EQ(index_->TfIdfScore({T("banana")}, d0_), 0.0);
}

TEST_F(IndexTest, SearchRanksByScoreDescending) {
  auto results = index_->Search({T("apple"), T("store")});
  ASSERT_EQ(results.size(), 2u);
  // d2 has tf(store)=2 so it outranks d0.
  EXPECT_EQ(results[0].doc, d2_);
  EXPECT_EQ(results[1].doc, d0_);
  EXPECT_GE(results[0].score, results[1].score);
}

TEST_F(IndexTest, SearchTopKTruncates) {
  auto results = index_->Search({T("apple")}, 2);
  EXPECT_EQ(results.size(), 2u);
}

TEST_F(IndexTest, SearchTextAnalyzesQuery) {
  auto results = index_->SearchText("Apple, STORE!");
  ASSERT_EQ(results.size(), 2u);
}

TEST_F(IndexTest, SearchTextUnknownWordReturnsNothing) {
  // "ghost" is not in the corpus: under AND semantics nothing matches.
  EXPECT_TRUE(index_->SearchText("apple ghost").empty());
}

TEST_F(IndexTest, RebuildPicksUpNewDocuments) {
  DocId d4 = corpus_.AddTextDocument("4", "apple banana");
  index_->Rebuild();
  EXPECT_EQ(index_->DocumentFrequency(T("banana")), 2u);
  EXPECT_EQ(index_->EvaluateAnd({T("apple"), T("banana")}),
            (std::vector<DocId>{d4}));
}

// ------------------------------------------------------------ external ids
// The mapping a snapshot's PERM section installs (see storage_test's
// SnapshotPermTest): ranked searches tie-break on external ids.

TEST(ExternalIdTest, RankedSearchTiesBreakOnExternalIds) {
  // Two identical documents tie on score; with external ids installed the
  // ranked order must follow the ORIGINAL ids, not the permuted ones.
  doc::Corpus corpus;
  corpus.AddTextDocument("first", "apple pie");
  corpus.AddTextDocument("second", "apple pie");
  index::InvertedIndex index(corpus);
  // Pretend this corpus is a reordering that swapped the two documents.
  index.SetExternalIds({1, 0});
  EXPECT_EQ(index.ExternalId(0), 1u);
  EXPECT_EQ(index.ExternalId(1), 0u);

  TermId apple = corpus.analyzer().vocabulary().Lookup("apple");
  ASSERT_NE(apple, kInvalidTermId);
  for (const auto& results :
       {index.Search({apple}), index.SearchVsm({apple}),
        index.SearchBm25({apple})}) {
    ASSERT_EQ(results.size(), 2u);
    // Internal doc 1 carries external id 0, so it ranks first.
    EXPECT_EQ(results[0].doc, 1u);
    EXPECT_EQ(results[1].doc, 0u);
  }
}

TEST(ExternalIdTest, EmptyMappingIsIdentity) {
  doc::Corpus corpus;
  corpus.AddTextDocument("only", "apple");
  index::InvertedIndex index(corpus);
  EXPECT_TRUE(index.external_ids().empty());
  EXPECT_EQ(index.ExternalId(0), 0u);
}

}  // namespace
}  // namespace qec
