// Tests for the query-biased snippet generator, vector-space retrieval,
// and the faceted-search comparison baseline.

#include <gtest/gtest.h>

#include "baselines/faceted.h"
#include "core/result_universe.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "snippet/snippet.h"

namespace qec {
namespace {

// ---------------------------------------------------------------- snippets

class SnippetFixture : public ::testing::Test {
 protected:
  SnippetFixture() {
    text_doc_ = corpus_.AddTextDocument(
        "t",
        "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu "
        "nu xi omicron pi rho sigma tau upsilon now java island volcano "
        "appears surrounded near sea plus extra trailing filler words "
        "continue beyond interesting part ends");
    product_ = corpus_.AddStructuredDocument(
        "p", {{"canon products", "category", "camera"},
              {"camera", "brand", "canon"},
              {"camera", "optical zoom", "10x"},
              {"camera", "image resolution", "4752 x 3168"},
              {"camera", "shutter speed", "30 - 1/4000 sec."}});
  }

  std::vector<TermId> Terms(const std::vector<std::string>& words) const {
    std::vector<TermId> out;
    for (const auto& w : words) {
      TermId t = corpus_.analyzer().vocabulary().Lookup(w);
      if (t != kInvalidTermId) out.push_back(t);
    }
    return out;
  }

  doc::Corpus corpus_;
  DocId text_doc_, product_;
};

TEST_F(SnippetFixture, WindowCoversQueryTerms) {
  snippet::SnippetGenerator gen;
  auto s = gen.Generate(corpus_.Get(text_doc_), Terms({"java", "island"}),
                        corpus_.analyzer().vocabulary());
  EXPECT_EQ(s.query_terms_covered, 2u);
  EXPECT_NE(s.text.find("[java]"), std::string::npos);
  EXPECT_NE(s.text.find("[island]"), std::string::npos);
  // Ellipses mark truncation on both sides.
  EXPECT_EQ(s.text.rfind("... ", 0), 0u);
  EXPECT_GT(s.start_position, 0u);
}

TEST_F(SnippetFixture, NoHighlightOption) {
  snippet::SnippetOptions options;
  options.highlight = false;
  snippet::SnippetGenerator gen(options);
  auto s = gen.Generate(corpus_.Get(text_doc_), Terms({"java"}),
                        corpus_.analyzer().vocabulary());
  EXPECT_EQ(s.text.find('['), std::string::npos);
  EXPECT_NE(s.text.find("java"), std::string::npos);
}

TEST_F(SnippetFixture, NoQueryMatchFallsBackToDocumentStart) {
  snippet::SnippetGenerator gen;
  auto s = gen.Generate(corpus_.Get(text_doc_), Terms({"zeppelin"}),
                        corpus_.analyzer().vocabulary());
  EXPECT_EQ(s.query_terms_covered, 0u);
  EXPECT_EQ(s.start_position, 0u);
  EXPECT_FALSE(s.text.empty());
}

TEST_F(SnippetFixture, ShortDocumentRendersWhole) {
  DocId tiny = corpus_.AddTextDocument("tiny", "small sample words");
  snippet::SnippetGenerator gen;
  auto s = gen.Generate(corpus_.Get(tiny), {},
                        corpus_.analyzer().vocabulary());
  EXPECT_EQ(s.text, "small sample words");
}

TEST_F(SnippetFixture, StructuredSnippetLeadsWithMatchingFeatures) {
  snippet::SnippetGenerator gen;
  auto s = gen.Generate(corpus_.Get(product_), Terms({"zoom"}),
                        corpus_.analyzer().vocabulary());
  // The matching feature is rendered first and highlighted.
  EXPECT_EQ(s.text.rfind("[camera: optical zoom: 10x]", 0), 0u);
  EXPECT_EQ(s.query_terms_covered, 1u);
}

TEST_F(SnippetFixture, StructuredSnippetCapsFeatures) {
  snippet::SnippetOptions options;
  options.max_features = 2;
  snippet::SnippetGenerator gen(options);
  auto s = gen.Generate(corpus_.Get(product_), {},
                        corpus_.analyzer().vocabulary());
  EXPECT_EQ(std::count(s.text.begin(), s.text.end(), ';'), 1);
}

// --------------------------------------------------------------------- VSM

class VsmFixture : public ::testing::Test {
 protected:
  VsmFixture() {
    d0_ = corpus_.AddTextDocument("0", "java island volcano");
    d1_ = corpus_.AddTextDocument("1", "java java java program");
    d2_ = corpus_.AddTextDocument("2", "island sea");
    d3_ = corpus_.AddTextDocument("3", "cooking recipes");
    index_ = std::make_unique<index::InvertedIndex>(corpus_);
  }

  TermId T(const std::string& w) const {
    return corpus_.analyzer().vocabulary().Lookup(w);
  }

  doc::Corpus corpus_;
  DocId d0_, d1_, d2_, d3_;
  std::unique_ptr<index::InvertedIndex> index_;
};

TEST_F(VsmFixture, RetrievesDisjunctively) {
  auto results = index_->SearchVsm({T("java"), T("island")});
  // Everything containing java OR island.
  EXPECT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_NE(r.doc, d3_);
}

TEST_F(VsmFixture, ScoresAreCosinesInUnitRange) {
  auto results = index_->SearchVsm({T("java"), T("island")});
  for (const auto& r : results) {
    EXPECT_GT(r.score, 0.0);
    EXPECT_LE(r.score, 1.0 + 1e-12);
  }
}

TEST_F(VsmFixture, BestMatchIsMostSimilarNotJustContaining) {
  // d0 contains both query terms; d1 has java thrice but no island. The
  // two-term query vector is closer to d0.
  auto results = index_->SearchVsm({T("java"), T("island")});
  ASSERT_GE(results.size(), 2u);
  EXPECT_EQ(results[0].doc, d0_);
}

TEST_F(VsmFixture, TopKTruncates) {
  auto results = index_->SearchVsm({T("java"), T("island")}, 1);
  EXPECT_EQ(results.size(), 1u);
}

TEST_F(VsmFixture, UnknownTermsGiveNothing) {
  EXPECT_TRUE(index_->SearchVsm({}).empty());
  EXPECT_TRUE(index_->SearchVsm({static_cast<TermId>(99999)}).empty());
}

TEST_F(VsmFixture, PerfectMatchScoresOne) {
  DocId exact = corpus_.AddTextDocument("e", "unicorn");
  index_->Rebuild();
  auto results = index_->SearchVsm({T("unicorn")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc, exact);
  EXPECT_NEAR(results[0].score, 1.0, 1e-12);
}

// ----------------------------------------------------------------- facets

class FacetedFixture : public ::testing::Test {
 protected:
  FacetedFixture() {
    // 6 TVs with brand + display type facets; 2 text docs (unfacetable).
    for (int i = 0; i < 3; ++i) {
      ids_.push_back(corpus_.AddStructuredDocument(
          "lcd" + std::to_string(i),
          {{"tv", "brand", i == 0 ? "lg" : "toshiba"},
           {"tv", "display type", "lcd"}}));
    }
    for (int i = 0; i < 3; ++i) {
      ids_.push_back(corpus_.AddStructuredDocument(
          "plasma" + std::to_string(i),
          {{"tv", "brand", i == 0 ? "lg" : "panasonic"},
           {"tv", "display type", "plasma"}}));
    }
    ids_.push_back(corpus_.AddTextDocument("t0", "tv broadcast history"));
    ids_.push_back(corpus_.AddTextDocument("t1", "tv series review"));
  }

  doc::Corpus corpus_;
  std::vector<DocId> ids_;
};

TEST_F(FacetedFixture, ExtractsDiscriminativeFacets) {
  core::ResultUniverse universe(corpus_, ids_);
  baselines::FacetedNavigator navigator;
  auto facets = navigator.ExtractFacets(universe);
  ASSERT_GE(facets.size(), 2u);
  // Both TV facets qualify (75% coverage, multiple values).
  bool saw_brand = false, saw_display = false;
  for (const auto& f : facets) {
    if (f.attribute == "brand") saw_brand = true;
    if (f.attribute == "display type") {
      saw_display = true;
      ASSERT_EQ(f.values.size(), 2u);
      EXPECT_EQ(f.values[0].second, 3u);
      EXPECT_NEAR(f.coverage, 6.0 / 8.0, 1e-12);
    }
  }
  EXPECT_TRUE(saw_brand);
  EXPECT_TRUE(saw_display);
}

TEST_F(FacetedFixture, TextOnlyUniverseHasNoFacets) {
  std::vector<DocId> text_only = {ids_[6], ids_[7]};
  core::ResultUniverse universe(corpus_, text_only);
  baselines::FacetedNavigator navigator;
  auto facets = navigator.ExtractFacets(universe);
  EXPECT_TRUE(facets.empty());
  EXPECT_DOUBLE_EQ(
      baselines::FacetedNavigator::FacetableFraction(universe, facets), 0.0);
}

TEST_F(FacetedFixture, MinCoverageFilters) {
  core::ResultUniverse universe(corpus_, ids_);
  baselines::FacetedOptions options;
  options.min_coverage = 0.9;  // nothing covers 90% (text docs dilute)
  auto facets = baselines::FacetedNavigator(options).ExtractFacets(universe);
  EXPECT_TRUE(facets.empty());
}

TEST_F(FacetedFixture, NonDiscriminativeFacetDropped) {
  // Add a facet with one value on every structured doc: useless.
  std::vector<DocId> structured(ids_.begin(), ids_.begin() + 6);
  doc::Corpus corpus;
  std::vector<DocId> ids;
  for (int i = 0; i < 4; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    ids.push_back(
        corpus.AddStructuredDocument(name, {{"item", "condition", "new"}}));
  }
  core::ResultUniverse universe(corpus, ids);
  auto facets = baselines::FacetedNavigator().ExtractFacets(universe);
  EXPECT_TRUE(facets.empty());
}

TEST_F(FacetedFixture, FacetableFractionCountsCarriers) {
  core::ResultUniverse universe(corpus_, ids_);
  baselines::FacetedNavigator navigator;
  auto facets = navigator.ExtractFacets(universe);
  EXPECT_NEAR(
      baselines::FacetedNavigator::FacetableFraction(universe, facets),
      6.0 / 8.0, 1e-12);
}

}  // namespace
}  // namespace qec
