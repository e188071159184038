// Property-based suites: randomized invariants checked across seeds with
// parameterized gtest. Each property pins down a contract the rest of the
// library silently relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/dynamic_bitset.h"
#include "common/random.h"
#include "core/metrics.h"
#include "core/query_expander.h"
#include "core/result_universe.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "storage/snapshot.h"
#include "text/tokenizer.h"
#include "xml/xml.h"

namespace qec {
namespace {

// ----------------------------------------------------------------- bitset

/// DynamicBitset against a std::vector<bool> reference model.
class BitsetModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitsetModelProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  const size_t size = 1 + rng.UniformInt(300);
  DynamicBitset a(size), b(size);
  std::vector<bool> ma(size, false), mb(size, false);
  for (int op = 0; op < 200; ++op) {
    size_t i = rng.UniformInt(size);
    switch (rng.UniformInt(6)) {
      case 0:
        a.Set(i);
        ma[i] = true;
        break;
      case 1:
        a.Reset(i);
        ma[i] = false;
        break;
      case 2:
        b.Set(i);
        mb[i] = true;
        break;
      case 3: {
        DynamicBitset c = a;
        c &= b;
        size_t expect = 0;
        for (size_t j = 0; j < size; ++j) expect += (ma[j] && mb[j]) ? 1 : 0;
        ASSERT_EQ(c.Count(), expect);
        ASSERT_EQ(a.AndCount(b), expect);
        break;
      }
      case 4: {
        DynamicBitset c = a;
        c |= b;
        size_t expect = 0;
        for (size_t j = 0; j < size; ++j) expect += (ma[j] || mb[j]) ? 1 : 0;
        ASSERT_EQ(c.Count(), expect);
        break;
      }
      case 5: {
        DynamicBitset c = a;
        c.AndNot(b);
        size_t expect = 0;
        for (size_t j = 0; j < size; ++j) expect += (ma[j] && !mb[j]) ? 1 : 0;
        ASSERT_EQ(c.Count(), expect);
        break;
      }
    }
  }
  // Final full comparison.
  for (size_t j = 0; j < size; ++j) {
    ASSERT_EQ(a.Test(j), ma[j]) << j;
    ASSERT_EQ(b.Test(j), mb[j]) << j;
  }
  // Subset/intersect consistency.
  DynamicBitset inter = a;
  inter &= b;
  EXPECT_EQ(a.Intersects(b), inter.Any());
  EXPECT_EQ(inter.IsSubsetOf(a), true);
  EXPECT_EQ(inter.IsSubsetOf(b), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetModelProperty,
                         ::testing::Range<uint64_t>(1, 16));

// ---------------------------------------------------------------- metrics

class MetricsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsProperty, FMeasureBetweenMinAndMaxOfPrecisionRecall) {
  Rng rng(GetParam());
  doc::Corpus corpus;
  std::vector<DocId> ids;
  const size_t docs = 4 + rng.UniformInt(12);
  for (size_t d = 0; d < docs; ++d) {
    std::string body = "q";
    if (rng.Bernoulli(0.5)) body += " red";
    if (rng.Bernoulli(0.5)) body += " blue";
    ids.push_back(corpus.AddTextDocument(std::to_string(d), body));
  }
  core::ResultUniverse universe(corpus, ids);
  DynamicBitset cluster(docs);
  for (size_t i = 0; i < docs; ++i) {
    if (rng.Bernoulli(0.5)) cluster.Set(i);
  }
  DynamicBitset retrieved(docs);
  for (size_t i = 0; i < docs; ++i) {
    if (rng.Bernoulli(0.5)) retrieved.Set(i);
  }
  core::QueryQuality q = core::EvaluateQuery(universe, retrieved, cluster);
  EXPECT_GE(q.precision, 0.0);
  EXPECT_LE(q.precision, 1.0);
  EXPECT_GE(q.recall, 0.0);
  EXPECT_LE(q.recall, 1.0);
  if (q.precision > 0.0 && q.recall > 0.0) {
    EXPECT_GE(q.f_measure, std::min(q.precision, q.recall) - 1e-12);
    EXPECT_LE(q.f_measure, std::max(q.precision, q.recall) + 1e-12);
  } else {
    EXPECT_DOUBLE_EQ(q.f_measure, 0.0);
  }
}

TEST_P(MetricsProperty, WeightScaleInvariance) {
  // Multiplying every ranking score by a constant cannot change P/R/F.
  Rng rng(GetParam() + 100);
  doc::Corpus corpus;
  std::vector<index::RankedResult> r1, r2;
  const size_t docs = 4 + rng.UniformInt(10);
  const double scale = 0.5 + rng.UniformDouble() * 9.5;
  for (size_t d = 0; d < docs; ++d) {
    std::string body = "q";
    if (rng.Bernoulli(0.6)) body += " red";
    DocId id = corpus.AddTextDocument(std::to_string(d), body);
    double w = 0.1 + rng.UniformDouble() * 5.0;
    r1.push_back({id, w});
    r2.push_back({id, w * scale});
  }
  core::ResultUniverse u1(corpus, r1), u2(corpus, r2);
  DynamicBitset cluster(docs);
  for (size_t i = 0; i < docs; ++i) {
    if (rng.Bernoulli(0.5)) cluster.Set(i);
  }
  TermId red = corpus.analyzer().vocabulary().Lookup("red");
  DynamicBitset retrieved1 = u1.Retrieve({red});
  DynamicBitset retrieved2 = u2.Retrieve({red});
  core::QueryQuality a = core::EvaluateQuery(u1, retrieved1, cluster);
  core::QueryQuality b = core::EvaluateQuery(u2, retrieved2, cluster);
  EXPECT_NEAR(a.precision, b.precision, 1e-9);
  EXPECT_NEAR(a.recall, b.recall, 1e-9);
  EXPECT_NEAR(a.f_measure, b.f_measure, 1e-9);
}

TEST_P(MetricsProperty, AndRetrievalIsAntitone) {
  // Adding a keyword never grows the AND result set; dually for OR.
  Rng rng(GetParam() + 200);
  doc::Corpus corpus;
  std::vector<DocId> ids;
  const size_t docs = 5 + rng.UniformInt(10);
  for (size_t d = 0; d < docs; ++d) {
    std::string body = "q";
    for (const char* w : {"red", "blue", "green"}) {
      if (rng.Bernoulli(0.5)) body += std::string(" ") + w;
    }
    ids.push_back(corpus.AddTextDocument(std::to_string(d), body));
  }
  core::ResultUniverse universe(corpus, ids);
  auto T = [&](const char* w) {
    return corpus.analyzer().vocabulary().Lookup(w);
  };
  std::vector<TermId> q = {T("q")};
  DynamicBitset prev = universe.Retrieve(q);
  for (const char* w : {"red", "blue", "green"}) {
    TermId t = T(w);
    if (t == kInvalidTermId) continue;
    q.push_back(t);
    DynamicBitset next = universe.Retrieve(q);
    EXPECT_TRUE(next.IsSubsetOf(prev));
    prev = next;
  }
  std::vector<TermId> oq;
  DynamicBitset oprev = universe.RetrieveOr(oq);
  for (const char* w : {"red", "blue", "green"}) {
    TermId t = T(w);
    if (t == kInvalidTermId) continue;
    oq.push_back(t);
    DynamicBitset onext = universe.RetrieveOr(oq);
    EXPECT_TRUE(oprev.IsSubsetOf(onext));
    oprev = onext;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty,
                         ::testing::Range<uint64_t>(1, 16));

// -------------------------------------------------------------- tokenizer

class TokenizerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerProperty, TokenizingJoinedTokensIsIdempotent) {
  Rng rng(GetParam());
  // Random printable soup.
  std::string soup;
  const size_t len = 5 + rng.UniformInt(200);
  const std::string alphabet =
      "abcXYZ019 .,;!-_#()[]{}\t\n\"'/\\@$%^&*";
  for (size_t i = 0; i < len; ++i) {
    soup += alphabet[rng.UniformInt(alphabet.size())];
  }
  text::Tokenizer tokenizer;
  std::vector<std::string> once = tokenizer.Tokenize(soup);
  std::string joined;
  for (const auto& t : once) joined += t + " ";
  std::vector<std::string> twice = tokenizer.Tokenize(joined);
  EXPECT_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerProperty,
                         ::testing::Range<uint64_t>(1, 21));

// -------------------------------------------------------------------- XML

class XmlRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

std::unique_ptr<xml::XmlNode> RandomTree(Rng& rng, int depth) {
  auto node = xml::XmlNode::Element("n" + std::to_string(rng.UniformInt(5)));
  if (rng.Bernoulli(0.5)) {
    node->SetAttribute("a" + std::to_string(rng.UniformInt(3)),
                       "v<&\"'" + std::to_string(rng.UniformInt(100)));
  }
  const size_t children = depth > 0 ? rng.UniformInt(4) : 0;
  bool last_was_text = false;  // adjacent text nodes coalesce on reparse
  for (size_t c = 0; c < children; ++c) {
    if (!last_was_text && rng.Bernoulli(0.4)) {
      node->AddChild(xml::XmlNode::Text(
          "text & <stuff> #" + std::to_string(rng.UniformInt(100))));
      last_was_text = true;
    } else {
      node->AddChild(RandomTree(rng, depth - 1));
      last_was_text = false;
    }
  }
  return node;
}

void ExpectSameTree(const xml::XmlNode& a, const xml::XmlNode& b) {
  ASSERT_EQ(a.kind(), b.kind());
  if (a.is_text()) {
    EXPECT_EQ(a.text(), b.text());
    return;
  }
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.attributes(), b.attributes());
  ASSERT_EQ(a.children().size(), b.children().size());
  for (size_t i = 0; i < a.children().size(); ++i) {
    ExpectSameTree(*a.children()[i], *b.children()[i]);
  }
}

TEST_P(XmlRoundTripProperty, WriteParseRoundTrip) {
  Rng rng(GetParam());
  auto tree = RandomTree(rng, 4);
  std::string serialized = xml::WriteNode(*tree);
  auto parsed = xml::Parse(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << serialized;
  ExpectSameTree(*tree, *parsed->root);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range<uint64_t>(1, 26));

// ---------------------------------------------------------------- snapshot

/// Snapshot round-trip property over random corpora: expansion results
/// from an index-build → serialize → load pipeline are identical to the
/// purely in-memory build, on mixed text/structured documents.
class SnapshotExpansionProperty : public ::testing::TestWithParam<uint64_t> {};

doc::Corpus RandomCorpus(Rng& rng) {
  static const char* kWords[] = {"apple", "camera", "java",   "store",
                                 "island", "coffee", "screen", "lens",
                                 "zoom",  "fruit",  "cider",  "review"};
  constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);
  doc::Corpus corpus;
  const size_t docs = 8 + rng.UniformInt(30);
  for (size_t d = 0; d < docs; ++d) {
    if (rng.Bernoulli(0.3)) {
      std::vector<doc::Feature> features;
      const size_t n = 1 + rng.UniformInt(4);
      for (size_t f = 0; f < n; ++f) {
        features.push_back({kWords[rng.UniformInt(kNumWords)],
                            kWords[rng.UniformInt(kNumWords)],
                            kWords[rng.UniformInt(kNumWords)]});
      }
      corpus.AddStructuredDocument("doc" + std::to_string(d),
                                   std::move(features));
    } else {
      std::string body;
      const size_t words = 5 + rng.UniformInt(40);
      for (size_t w = 0; w < words; ++w) {
        body += kWords[rng.UniformInt(kNumWords)];
        body += ' ';
      }
      corpus.AddTextDocument("doc" + std::to_string(d), body);
    }
  }
  return corpus;
}

TEST_P(SnapshotExpansionProperty, LoadedExpansionEqualsInMemory) {
  Rng rng(GetParam());
  doc::Corpus corpus = RandomCorpus(rng);
  index::InvertedIndex index(corpus);
  auto snapshot =
      storage::DeserializeSnapshot(storage::SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  core::QueryExpanderOptions options;
  options.algorithm = rng.Bernoulli(0.5) ? core::ExpansionAlgorithm::kIskr
                                         : core::ExpansionAlgorithm::kPebc;
  core::QueryExpander in_memory(index, options);
  core::QueryExpander loaded(*snapshot->index, options);
  for (const char* query : {"apple", "camera", "java coffee"}) {
    auto a = in_memory.ExpandText(query);
    auto b = loaded.ExpandText(query);
    ASSERT_EQ(a.ok(), b.ok()) << query;
    if (!a.ok()) continue;
    EXPECT_DOUBLE_EQ(a->set_score, b->set_score) << query;
    ASSERT_EQ(a->queries.size(), b->queries.size()) << query;
    for (size_t i = 0; i < a->queries.size(); ++i) {
      EXPECT_EQ(a->queries[i].terms, b->queries[i].terms);
      EXPECT_EQ(a->queries[i].keywords, b->queries[i].keywords);
      EXPECT_DOUBLE_EQ(a->queries[i].quality.f_measure,
                       b->queries[i].quality.f_measure);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotExpansionProperty,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------- fused kernels

/// Every fused set-algebra kernel must be byte/sum-identical to the naive
/// materialize-then-count/weigh formulation it replaced. 40 seeds × 25
/// random universes per seed = 1000 universes, with exact (==) equality —
/// the fused weighted sums visit doc ids in the same ascending order as
/// TotalWeight over the materialized set, so even the doubles must match
/// bit for bit.
class FusedKernelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedKernelProperty, KernelsMatchNaiveFormulation) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    const size_t size = 1 + rng.UniformInt(300);
    doc::Corpus corpus;
    std::vector<index::RankedResult> results;
    for (size_t d = 0; d < size; ++d) {
      DocId id = corpus.AddTextDocument(std::to_string(d), "t");
      results.push_back({id, 0.05 + rng.UniformDouble() * 4.0});
    }
    core::ResultUniverse universe(corpus, results);
    auto random_bits = [&] {
      DynamicBitset bits(size);
      for (size_t i = 0; i < size; ++i) {
        if (rng.Bernoulli(0.4)) bits.Set(i);
      }
      return bits;
    };
    const DynamicBitset a = random_bits();
    const DynamicBitset b = random_bits();
    const DynamicBitset c = random_bits();
    const DynamicBitset d = random_bits();

    // Count kernels against the materializing formulation.
    DynamicBitset a_andnot_b = a;
    a_andnot_b.AndNot(b);
    ASSERT_EQ(a.AndNotCount(b), a_andnot_b.Count());
    DynamicBitset abc = a;
    abc &= b;
    abc &= c;
    ASSERT_EQ(a.AndCount3(b, c), abc.Count());
    ASSERT_EQ(a.Intersects(b, c), abc.Any());
    DynamicBitset anb_c = a_andnot_b;
    anb_c &= c;
    ASSERT_EQ(a.AndNotAndCount(b, c), anb_c.Count());
    ASSERT_EQ(a.None(), a.Count() == 0);

    // Weighted kernels: exact equality, not EXPECT_NEAR.
    DynamicBitset ab = a;
    ab &= b;
    ASSERT_EQ(universe.WeightOfAnd(a, b), universe.TotalWeight(ab));
    ASSERT_EQ(universe.WeightOfAndNot(a, b), universe.TotalWeight(a_andnot_b));
    ASSERT_EQ(universe.WeightOfAndNotAnd(a, b, c),
              universe.TotalWeight(anb_c));
    DynamicBitset four = anb_c;
    four.AndNot(d);
    ASSERT_EQ(universe.WeightWhere(
                  [](uint64_t wa, uint64_t wb, uint64_t wc, uint64_t wd) {
                    return wa & ~wb & wc & ~wd;
                  },
                  a, b, c, d),
              universe.TotalWeight(four));
  }
}

TEST_P(FusedKernelProperty, RetrieveIntoMatchesRetrieve) {
  Rng rng(GetParam() + 1000);
  doc::Corpus corpus = RandomCorpus(rng);
  std::vector<DocId> ids;
  for (DocId d = 0; d < corpus.NumDocs(); ++d) ids.push_back(d);
  core::ResultUniverse universe(corpus, ids);
  static const char* kWords[] = {"apple", "camera", "java", "store", "coffee"};
  DynamicBitset scratch(0);  // Reused across queries: capacity must not leak.
  for (int q = 0; q < 10; ++q) {
    std::vector<TermId> query;
    const size_t len = 1 + rng.UniformInt(3);
    for (size_t i = 0; i < len; ++i) {
      TermId t = corpus.analyzer().vocabulary().Lookup(
          kWords[rng.UniformInt(sizeof(kWords) / sizeof(kWords[0]))]);
      if (t != kInvalidTermId) query.push_back(t);
    }
    universe.RetrieveInto(query, &scratch);
    ASSERT_EQ(scratch, universe.Retrieve(query));
    if (!query.empty()) {
      TermId excluded = query[rng.UniformInt(query.size())];
      universe.RetrieveWithoutInto(query, excluded, &scratch);
      std::vector<TermId> without;
      for (TermId t : query) {
        if (t != excluded) without.push_back(t);
      }
      ASSERT_EQ(scratch, universe.Retrieve(without));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedKernelProperty,
                         ::testing::Range<uint64_t>(1, 41));

// ------------------------------------------------------- permuted doc ids

/// `corpus` with its documents in `order` (document i is corpus document
/// order[i]) and its vocabulary interned in id order, so TermIds are
/// unchanged: the corpus a snapshot with a PERM section holds.
doc::Corpus PermutedCopy(const doc::Corpus& corpus,
                         const std::vector<DocId>& order) {
  doc::Corpus out(corpus.analyzer().options());
  const text::Vocabulary& vocab = corpus.analyzer().vocabulary();
  for (TermId t = 0; t < vocab.size(); ++t) {
    EXPECT_EQ(out.analyzer().InternVerbatim(vocab.TermString(t)), t);
  }
  for (DocId src : order) {
    const doc::Document& d = corpus.Get(src);
    out.RestoreDocument(d.kind(), d.title(), d.terms(), d.features());
  }
  return out;
}

std::vector<DocId> RandomOrder(Rng& rng, size_t n) {
  std::vector<DocId> order(n);
  for (DocId d = 0; d < n; ++d) order[d] = d;
  rng.Shuffle(order);
  return order;
}

/// The read-path byte-identity contract for snapshots whose doc ids were
/// permuted before indexing (older builds' cluster reordering): with the
/// permutation installed as external ids, scatter-gather sweeps over the
/// permuted index must reproduce the serial expansion over the original
/// EXACTLY — same terms, same keywords, and bit-identical doubles — for
/// every algorithm.
class ReorderExpansionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReorderExpansionProperty, ReorderedShardedExpansionIsByteIdentical) {
  Rng rng(GetParam());
  doc::Corpus corpus = RandomCorpus(rng);
  index::InvertedIndex index(corpus);

  const std::vector<DocId> order = RandomOrder(rng, corpus.NumDocs());
  doc::Corpus reordered = PermutedCopy(corpus, order);
  ASSERT_EQ(reordered.NumDocs(), corpus.NumDocs());
  // Re-interning preserved the vocabulary bit for bit.
  ASSERT_EQ(reordered.analyzer().vocabulary().size(),
            corpus.analyzer().vocabulary().size());
  index::InvertedIndex reordered_index(reordered);
  reordered_index.SetExternalIds(order);

  for (auto algorithm :
       {core::ExpansionAlgorithm::kIskr, core::ExpansionAlgorithm::kPebc,
        core::ExpansionAlgorithm::kFMeasure}) {
    core::QueryExpanderOptions serial_options;
    serial_options.algorithm = algorithm;
    core::QueryExpanderOptions sharded_options = serial_options;
    sharded_options.sweep.threads = 4;

    core::QueryExpander seed_path(index, serial_options);
    core::QueryExpander sharded_path(reordered_index, sharded_options);
    for (const char* query : {"apple", "camera", "java coffee", "store"}) {
      auto a = seed_path.ExpandText(query);
      auto b = sharded_path.ExpandText(query);
      ASSERT_EQ(a.ok(), b.ok()) << query;
      if (!a.ok()) continue;
      ASSERT_EQ(a->set_score, b->set_score) << query;  // exact, not NEAR
      ASSERT_EQ(a->num_clusters, b->num_clusters) << query;
      ASSERT_EQ(a->num_results_used, b->num_results_used) << query;
      ASSERT_EQ(a->queries.size(), b->queries.size()) << query;
      for (size_t i = 0; i < a->queries.size(); ++i) {
        ASSERT_EQ(a->queries[i].terms, b->queries[i].terms) << query;
        ASSERT_EQ(a->queries[i].keywords, b->queries[i].keywords) << query;
        ASSERT_EQ(a->queries[i].quality.precision,
                  b->queries[i].quality.precision);
        ASSERT_EQ(a->queries[i].quality.recall, b->queries[i].quality.recall);
        ASSERT_EQ(a->queries[i].quality.f_measure,
                  b->queries[i].quality.f_measure);
        ASSERT_EQ(a->queries[i].iterations, b->queries[i].iterations);
        ASSERT_EQ(a->queries[i].value_recomputations,
                  b->queries[i].value_recomputations);
      }
    }
  }
}

TEST_P(ReorderExpansionProperty, ReorderedSnapshotRoundTripIsByteIdentical) {
  // Same contract through the full persistence pipeline: serialize the
  // permuted index with its PERM section, load it back, expand.
  Rng rng(GetParam() + 4000);
  doc::Corpus corpus = RandomCorpus(rng);
  index::InvertedIndex index(corpus);

  const std::vector<DocId> order = RandomOrder(rng, corpus.NumDocs());
  doc::Corpus reordered = PermutedCopy(corpus, order);
  index::InvertedIndex reordered_index(reordered);
  auto snapshot = storage::DeserializeSnapshot(
      storage::SerializeSnapshot(reordered_index, order));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot->external_ids, order);

  core::QueryExpanderOptions options;
  options.algorithm = core::ExpansionAlgorithm::kIskr;
  options.sweep.threads = 4;
  core::QueryExpander seed_path(index, options);
  core::QueryExpander loaded_path(*snapshot->index, options);
  for (const char* query : {"apple", "camera", "java coffee"}) {
    auto a = seed_path.ExpandText(query);
    auto b = loaded_path.ExpandText(query);
    ASSERT_EQ(a.ok(), b.ok()) << query;
    if (!a.ok()) continue;
    ASSERT_EQ(a->set_score, b->set_score) << query;
    ASSERT_EQ(a->queries.size(), b->queries.size()) << query;
    for (size_t i = 0; i < a->queries.size(); ++i) {
      ASSERT_EQ(a->queries[i].terms, b->queries[i].terms) << query;
      ASSERT_EQ(a->queries[i].keywords, b->queries[i].keywords) << query;
      ASSERT_EQ(a->queries[i].quality.f_measure,
                b->queries[i].quality.f_measure);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderExpansionProperty,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace qec
