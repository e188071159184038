// Tests for the synthetic dataset generators and the Table 1 workload:
// every workload query must retrieve results with the multi-interpretation
// structure the paper's experiments rely on.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "datagen/clustered.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "datagen/workload.h"
#include "index/inverted_index.h"
#include "xml/xml.h"

namespace qec::datagen {
namespace {

// ---------------------------------------------------------------- Shopping

class ShoppingFixture : public ::testing::Test {
 protected:
  ShoppingFixture() : corpus_(ShoppingGenerator().Generate()), index_(corpus_) {}

  doc::Corpus corpus_;
  index::InvertedIndex index_;
};

TEST_F(ShoppingFixture, GeneratesStructuredProducts) {
  EXPECT_GT(corpus_.NumDocs(), 100u);
  for (DocId d = 0; d < corpus_.NumDocs(); ++d) {
    const auto& doc = corpus_.Get(d);
    EXPECT_EQ(doc.kind(), doc::DocumentKind::kStructured);
    EXPECT_GE(doc.features().size(), 4u);
  }
}

TEST_F(ShoppingFixture, DeterministicForFixedSeed) {
  doc::Corpus again = ShoppingGenerator().Generate();
  ASSERT_EQ(again.NumDocs(), corpus_.NumDocs());
  for (DocId d = 0; d < corpus_.NumDocs(); ++d) {
    EXPECT_EQ(again.Get(d).title(), corpus_.Get(d).title());
    EXPECT_EQ(again.Get(d).terms(), corpus_.Get(d).terms());
  }
}

TEST_F(ShoppingFixture, EveryWorkloadQueryHasResults) {
  for (const auto& wq : ShoppingQueries()) {
    auto results = index_.SearchText(wq.text);
    EXPECT_GE(results.size(), 5u) << wq.id << " \"" << wq.text << "\"";
  }
}

TEST_F(ShoppingFixture, CanonProductsSpanThreeCategories) {
  auto results = index_.SearchText("canon products");
  std::set<std::string> categories;
  for (const auto& r : results) {
    for (const auto& f : corpus_.Get(r.doc).features()) {
      if (f.attribute == "category" && f.entity == "canon products") {
        categories.insert(f.value);
      }
    }
  }
  EXPECT_EQ(categories,
            (std::set<std::string>{"camcorders", "printer", "camera"}));
}

TEST_F(ShoppingFixture, CategoriesHaveDistinctFeatureVocabulary) {
  // The paper's key shopping property: a feature token of one category
  // never appears in another category's products.
  auto tv = index_.SearchText("tv");
  auto memory = index_.SearchText("memory");
  ASSERT_FALSE(tv.empty());
  ASSERT_FALSE(memory.empty());
  const auto& vocab = corpus_.analyzer().vocabulary();
  TermId plasma_tok = vocab.Lookup("tv:displaytype:plasmahdtv");
  ASSERT_NE(plasma_tok, kInvalidTermId);
  for (const auto& r : memory) {
    EXPECT_FALSE(corpus_.Get(r.doc).Contains(plasma_tok));
  }
}

TEST_F(ShoppingFixture, MemoryQueriesNarrow) {
  auto all = index_.SearchText("memory");
  auto gb8 = index_.SearchText("memory 8gb");
  auto internal = index_.SearchText("memory internal");
  EXPECT_GT(all.size(), gb8.size());
  EXPECT_GT(all.size(), internal.size());
  EXPECT_FALSE(gb8.empty());
  EXPECT_FALSE(internal.empty());
}

TEST_F(ShoppingFixture, NetworkingRoutersSubsetOfNetworking) {
  auto networking = index_.SearchText("networking products");
  auto routers = index_.SearchText("networking products routers");
  EXPECT_GT(networking.size(), routers.size());
  std::set<DocId> net_docs;
  for (const auto& r : networking) net_docs.insert(r.doc);
  for (const auto& r : routers) EXPECT_TRUE(net_docs.count(r.doc) == 1);
}

// --------------------------------------------------------------- Wikipedia

class WikipediaFixture : public ::testing::Test {
 protected:
  static WikipediaOptions SmallOptions() {
    WikipediaOptions options;
    options.docs_per_sense = 8;
    options.background_docs = 30;
    return options;
  }

  WikipediaFixture()
      : corpus_(WikipediaGenerator(SmallOptions()).Generate()),
        index_(corpus_) {}

  doc::Corpus corpus_;
  index::InvertedIndex index_;
};

TEST_F(WikipediaFixture, ArticlesAreWellFormedXml) {
  auto articles = WikipediaGenerator(SmallOptions()).GenerateArticlesXml();
  ASSERT_GT(articles.size(), 100u);
  for (const auto& a : articles) {
    auto parsed = xml::Parse(a);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->root->name(), "article");
    EXPECT_FALSE(std::string(parsed->root->Attribute("id")).empty());
  }
}

TEST_F(WikipediaFixture, DeterministicForFixedSeed) {
  doc::Corpus again = WikipediaGenerator(SmallOptions()).Generate();
  ASSERT_EQ(again.NumDocs(), corpus_.NumDocs());
  for (DocId d = 0; d < corpus_.NumDocs(); ++d) {
    EXPECT_EQ(again.Get(d).terms(), corpus_.Get(d).terms());
  }
}

TEST_F(WikipediaFixture, EveryWorkloadQueryHasResults) {
  for (const auto& wq : WikipediaQueries()) {
    auto results = index_.SearchText(wq.text);
    EXPECT_GE(results.size(), 10u) << wq.id << " \"" << wq.text << "\"";
  }
}

TEST_F(WikipediaFixture, SensesAreRankImbalanced) {
  // Dominant senses repeat topic words more, so the top results should be
  // mostly the first sense — the paper's "apple" ranking-bias setup.
  auto results = index_.SearchText("java", 10);
  ASSERT_EQ(results.size(), 10u);
  size_t programming = 0;
  for (const auto& r : results) {
    if (corpus_.Get(r.doc).title().find("programming") != std::string::npos) {
      ++programming;
    }
  }
  EXPECT_GE(programming, 6u);
}

TEST_F(WikipediaFixture, AllSensesReachableInFullResults) {
  auto results = index_.SearchText("java");
  std::set<std::string> senses;
  for (const auto& r : results) {
    const std::string& t = corpus_.Get(r.doc).title();
    if (t.find("programming") != std::string::npos) senses.insert("prog");
    if (t.find("island") != std::string::npos) senses.insert("island");
    if (t.find("coffee") != std::string::npos) senses.insert("coffee");
  }
  EXPECT_EQ(senses.size(), 3u);
}

TEST_F(WikipediaFixture, BackgroundDocsDoNotMatchTopics) {
  auto results = index_.SearchText("rockets");
  for (const auto& r : results) {
    EXPECT_EQ(corpus_.Get(r.doc).title().find("background"),
              std::string::npos);
  }
}

TEST_F(WikipediaFixture, ScalableResultCounts) {
  WikipediaOptions big = SmallOptions();
  big.docs_per_sense = 30;
  doc::Corpus corpus = WikipediaGenerator(big).Generate();
  index::InvertedIndex index(corpus);
  auto results = index.SearchText("columbia");
  // 30 + 24 + 18 articles (dominance 1.0 / 0.8 / 0.6).
  EXPECT_GE(results.size(), 70u);
}

// ---------------------------------------------------------------- Workload

TEST(WorkloadTest, TwentyQueriesWithPaperIds) {
  auto qs = ShoppingQueries();
  auto qw = WikipediaQueries();
  ASSERT_EQ(qs.size(), 10u);
  ASSERT_EQ(qw.size(), 10u);
  EXPECT_EQ(qs[0].id, "QS1");
  EXPECT_EQ(qs[9].id, "QS10");
  EXPECT_EQ(qw[0].id, "QW1");
  EXPECT_EQ(qw[5].text, "java");
}

TEST(WorkloadTest, QueryLogCoversEveryWorkloadQuery) {
  baselines::QueryLogSuggester log(SyntheticQueryLog());
  text::Analyzer analyzer;  // empty corpus: all suggestions off-corpus
  for (const auto& wq : ShoppingQueries()) {
    EXPECT_FALSE(log.Suggest(wq.text, analyzer, 3).empty()) << wq.id;
  }
  for (const auto& wq : WikipediaQueries()) {
    EXPECT_FALSE(log.Suggest(wq.text, analyzer, 3).empty()) << wq.id;
  }
}

TEST(WorkloadTest, RocketsSuggestionsAllSpace) {
  // The deliberate diversity failure: no NBA suggestion for QW8.
  baselines::QueryLogSuggester log(SyntheticQueryLog());
  text::Analyzer analyzer;
  auto suggestions = log.Suggest("rockets", analyzer, 3);
  ASSERT_EQ(suggestions.size(), 3u);
  for (const auto& s : suggestions) {
    for (const auto& k : s.keywords) {
      EXPECT_NE(k, "nba");
      EXPECT_NE(k, "houston");
    }
  }
}

// --------------------------------------------------------------- Clustered

TEST(ClusteredGeneratorTest, InterleavesClustersAndIsDeterministic) {
  ClusteredOptions options;
  options.num_docs = 200;
  options.num_clusters = 8;
  doc::Corpus a = ClusteredGenerator(options).Generate();
  doc::Corpus b = ClusteredGenerator(options).Generate();
  ASSERT_EQ(a.NumDocs(), options.num_docs);
  for (DocId d = 0; d < a.NumDocs(); ++d) {
    EXPECT_EQ(a.Get(d).terms(), b.Get(d).terms());
  }
  // Round-robin interleave: every topic term of doc d ("c<k>t<j>") comes
  // from cluster d % num_clusters, so adjacent docs never share a topic.
  const auto& vocab = a.analyzer().vocabulary();
  for (DocId d = 0; d < a.NumDocs(); ++d) {
    std::string prefix = "c";
    prefix += std::to_string(d % options.num_clusters);
    prefix += 't';
    size_t topic_terms = 0;
    for (TermId t : a.Get(d).terms()) {
      const std::string term(vocab.TermString(t));
      if (term[0] != 'c') continue;
      ++topic_terms;
      EXPECT_EQ(term.rfind(prefix, 0), 0u) << "doc " << d << ": " << term;
    }
    EXPECT_GT(topic_terms, 0u) << "doc " << d;
  }
}

}  // namespace
}  // namespace qec::datagen
