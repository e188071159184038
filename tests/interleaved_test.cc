// Tests for the interleaved clustering/expansion prototype (Sec. 7 future
// work): reassignment can only keep or improve the Eq. 1 set score, fixes
// deliberately corrupted clusterings, and terminates.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/interleaved.h"
#include "core/metrics.h"
#include "core/result_universe.h"
#include "doc/corpus.h"

namespace qec::core {
namespace {

class InterleavedFixture : public ::testing::Test {
 protected:
  InterleavedFixture() {
    // Two clean senses.
    for (int i = 0; i < 4; ++i) {
      std::string name = "a";
      std::string body = "q alpha sensea item";
      name += std::to_string(i);
      body += std::to_string(i);
      ids_.push_back(corpus_.AddTextDocument(name, body));
    }
    for (int i = 0; i < 4; ++i) {
      std::string name = "b";
      std::string body = "q beta senseb item";
      name += std::to_string(i);
      body += std::to_string(i);
      ids_.push_back(corpus_.AddTextDocument(name, body));
    }
    universe_ = std::make_unique<ResultUniverse>(corpus_, ids_);
    for (const char* w : {"alpha", "beta", "sensea", "senseb"}) {
      candidates_.push_back(corpus_.analyzer().vocabulary().Lookup(w));
    }
    user_terms_ = {corpus_.analyzer().vocabulary().Lookup("q")};
  }

  cluster::Clustering MakeAssignment(std::vector<int> assignment) const {
    cluster::Clustering c;
    c.assignment = std::move(assignment);
    int max_label = 0;
    for (int a : c.assignment) max_label = std::max(max_label, a);
    c.num_clusters = static_cast<size_t>(max_label) + 1;
    return c;
  }

  doc::Corpus corpus_;
  std::vector<DocId> ids_;
  std::unique_ptr<ResultUniverse> universe_;
  std::vector<TermId> candidates_;
  std::vector<TermId> user_terms_;
};

TEST_F(InterleavedFixture, PerfectClusteringStaysPut) {
  cluster::Clustering perfect =
      MakeAssignment({0, 0, 0, 0, 1, 1, 1, 1});
  InterleavedOutcome out = InterleavedExpander().Run(
      *universe_, user_terms_, perfect, candidates_);
  EXPECT_DOUBLE_EQ(out.set_score, 1.0);
  EXPECT_EQ(out.rounds, 0u);
  EXPECT_EQ(out.clustering.assignment, perfect.assignment);
}

TEST_F(InterleavedFixture, RepairsCorruptedClustering) {
  // Swap one document between the senses: the initial expansion cannot be
  // perfect, but the expanded queries still retrieve the true senses, so
  // reassignment snaps the strays back.
  cluster::Clustering corrupted =
      MakeAssignment({0, 0, 0, 1, 1, 1, 1, 0});
  double initial_score = 0.0;
  {
    std::vector<QueryQuality> qualities;
    auto members = corrupted.Members();
    for (const auto& m : members) {
      DynamicBitset bits = universe_->EmptySet();
      for (size_t i : m) bits.Set(i);
      ExpansionContext ctx =
          MakeContext(*universe_, user_terms_, std::move(bits), candidates_);
      qualities.push_back(IskrExpander().Expand(ctx).quality);
    }
    initial_score = SetScore(qualities);
  }
  ASSERT_LT(initial_score, 1.0);

  InterleavedOutcome out = InterleavedExpander().Run(
      *universe_, user_terms_, corrupted, candidates_);
  EXPECT_GT(out.set_score, initial_score);
  EXPECT_DOUBLE_EQ(out.set_score, 1.0);
  EXPECT_GE(out.rounds, 1u);
  // The repaired clustering separates the senses.
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(out.clustering.assignment[i], out.clustering.assignment[0]);
    EXPECT_EQ(out.clustering.assignment[4 + i],
              out.clustering.assignment[4]);
  }
  EXPECT_NE(out.clustering.assignment[0], out.clustering.assignment[4]);
}

TEST_F(InterleavedFixture, NeverDecreasesScore) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> assignment(8);
    for (int& a : assignment) a = static_cast<int>(rng.UniformInt(2));
    // Ensure both labels appear.
    assignment[0] = 0;
    assignment[7] = 1;
    cluster::Clustering random_clustering = MakeAssignment(assignment);
    double base;
    {
      std::vector<QueryQuality> qualities;
      for (const auto& m : random_clustering.Members()) {
        DynamicBitset bits = universe_->EmptySet();
        for (size_t i : m) bits.Set(i);
        ExpansionContext ctx = MakeContext(*universe_, user_terms_,
                                           std::move(bits), candidates_);
        qualities.push_back(IskrExpander().Expand(ctx).quality);
      }
      base = SetScore(qualities);
    }
    InterleavedOutcome out = InterleavedExpander().Run(
        *universe_, user_terms_, random_clustering, candidates_);
    EXPECT_GE(out.set_score, base - 1e-12);
  }
}

TEST_F(InterleavedFixture, MaxRoundsZeroMeansPlainExpansion) {
  cluster::Clustering corrupted =
      MakeAssignment({0, 0, 0, 1, 1, 1, 1, 0});
  InterleavedOptions options;
  options.max_rounds = 0;
  InterleavedOutcome out = InterleavedExpander(options).Run(
      *universe_, user_terms_, corrupted, candidates_);
  EXPECT_EQ(out.rounds, 0u);
  EXPECT_EQ(out.clustering.assignment, corrupted.assignment);
}

TEST_F(InterleavedFixture, ExpansionCountTracksClusters) {
  cluster::Clustering perfect = MakeAssignment({0, 0, 0, 0, 1, 1, 1, 1});
  InterleavedOutcome out = InterleavedExpander().Run(
      *universe_, user_terms_, perfect, candidates_);
  EXPECT_EQ(out.expansions.size(), out.clustering.num_clusters);
}

}  // namespace
}  // namespace qec::core
