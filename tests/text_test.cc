// Unit tests for qec_text: tokenizer, stopwords, Porter stemmer,
// vocabulary interning, and the full analyzer pipeline.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "text/analyzer.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace qec::text {
namespace {

// --------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, SplitsOnNonAlnum) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("hello, world!"),
            (std::vector<std::string>{"hello", "world"}));
}

TEST(TokenizerTest, LowercasesByDefault) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("Apple iPhone"),
            (std::vector<std::string>{"apple", "iphone"}));
}

TEST(TokenizerTest, CanDisableLowercasing) {
  TokenizerOptions options;
  options.lowercase = false;
  Tokenizer t(options);
  EXPECT_EQ(t.Tokenize("Apple"), (std::vector<std::string>{"Apple"}));
}

TEST(TokenizerTest, KeepsHyphenatedProductNames) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("canon wp-dc26 case"),
            (std::vector<std::string>{"canon", "wp-dc26", "case"}));
}

TEST(TokenizerTest, StripsEdgeHyphens) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("-foo- --bar"),
            (std::vector<std::string>{"foo", "bar"}));
}

TEST(TokenizerTest, NumbersKeptByDefaultDroppableViaOption) {
  Tokenizer keep;
  EXPECT_EQ(keep.Tokenize("8gb 500 disk"),
            (std::vector<std::string>{"8gb", "500", "disk"}));
  TokenizerOptions options;
  options.keep_numbers = false;
  Tokenizer drop(options);
  EXPECT_EQ(drop.Tokenize("8gb 500 disk"),
            (std::vector<std::string>{"8gb", "disk"}));
}

TEST(TokenizerTest, MinTokenLength) {
  TokenizerOptions options;
  options.min_token_length = 3;
  Tokenizer t(options);
  EXPECT_EQ(t.Tokenize("a an the cat"), (std::vector<std::string>{"the", "cat"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnlyInputs) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("!!! ... ,,,").empty());
}

// --------------------------------------------------------------- Stopwords

TEST(StopwordsTest, DefaultEnglishContainsFunctionWords) {
  StopwordList sw = StopwordList::DefaultEnglish();
  EXPECT_TRUE(sw.IsStopword("the"));
  EXPECT_TRUE(sw.IsStopword("and"));
  EXPECT_TRUE(sw.IsStopword("is"));
  EXPECT_FALSE(sw.IsStopword("apple"));
  EXPECT_FALSE(sw.IsStopword("store"));
}

TEST(StopwordsTest, EmptyListMatchesNothing) {
  StopwordList sw;
  EXPECT_FALSE(sw.IsStopword("the"));
}

TEST(StopwordsTest, CustomListAndAdd) {
  StopwordList sw(std::vector<std::string>{"foo"});
  EXPECT_TRUE(sw.IsStopword("foo"));
  EXPECT_FALSE(sw.IsStopword("bar"));
  sw.Add("bar");
  EXPECT_TRUE(sw.IsStopword("bar"));
}

// ----------------------------------------------------------- PorterStemmer

TEST(PorterStemmerTest, ClassicExamples) {
  PorterStemmer s;
  EXPECT_EQ(s.Stem("caresses"), "caress");
  EXPECT_EQ(s.Stem("ponies"), "poni");
  EXPECT_EQ(s.Stem("cats"), "cat");
  EXPECT_EQ(s.Stem("feed"), "feed");
  EXPECT_EQ(s.Stem("agreed"), "agre");
  EXPECT_EQ(s.Stem("plastered"), "plaster");
  EXPECT_EQ(s.Stem("motoring"), "motor");
  EXPECT_EQ(s.Stem("conflated"), "conflat");
  EXPECT_EQ(s.Stem("troubled"), "troubl");
  EXPECT_EQ(s.Stem("sized"), "size");
  EXPECT_EQ(s.Stem("hopping"), "hop");
  EXPECT_EQ(s.Stem("falling"), "fall");
  EXPECT_EQ(s.Stem("hissing"), "hiss");
  EXPECT_EQ(s.Stem("filing"), "file");
}

TEST(PorterStemmerTest, Step2Through4Examples) {
  PorterStemmer s;
  EXPECT_EQ(s.Stem("relational"), "relat");
  EXPECT_EQ(s.Stem("conditional"), "condit");
  EXPECT_EQ(s.Stem("valency"), "valenc");  // valenci -> valence -> valenc
  EXPECT_EQ(s.Stem("digitizer"), "digit");
  EXPECT_EQ(s.Stem("operator"), "oper");
  EXPECT_EQ(s.Stem("feudalism"), "feudal");
  EXPECT_EQ(s.Stem("hopefulness"), "hope");
  EXPECT_EQ(s.Stem("formality"), "formal");
  EXPECT_EQ(s.Stem("electricity"), "electr");
  EXPECT_EQ(s.Stem("triplicate"), "triplic");
  EXPECT_EQ(s.Stem("formative"), "form");
  EXPECT_EQ(s.Stem("formalize"), "formal");
  EXPECT_EQ(s.Stem("revival"), "reviv");
  EXPECT_EQ(s.Stem("allowance"), "allow");
  EXPECT_EQ(s.Stem("inference"), "infer");
  EXPECT_EQ(s.Stem("adjustment"), "adjust");
  EXPECT_EQ(s.Stem("adoption"), "adopt");
  EXPECT_EQ(s.Stem("effective"), "effect");
}

TEST(PorterStemmerTest, ShortWordsUnchanged) {
  PorterStemmer s;
  EXPECT_EQ(s.Stem("be"), "be");
  EXPECT_EQ(s.Stem("at"), "at");
  EXPECT_EQ(s.Stem(""), "");
}

TEST(PorterStemmerTest, NonAlphaWordsPassThrough) {
  PorterStemmer s;
  EXPECT_EQ(s.Stem("8gb"), "8gb");
  EXPECT_EQ(s.Stem("wp-dc26"), "wp-dc26");
  EXPECT_EQ(s.Stem("tv:brand:lg"), "tv:brand:lg");
}

TEST(PorterStemmerTest, YAsVowelRules) {
  PorterStemmer s;
  EXPECT_EQ(s.Stem("happy"), "happi");
  EXPECT_EQ(s.Stem("sky"), "sky");  // no earlier vowel: y stays
}

// -------------------------------------------------------------- Vocabulary

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary v;
  TermId a = v.Intern("apple");
  TermId b = v.Intern("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(v.Intern("apple"), a);
  EXPECT_EQ(v.size(), 2u);
}

TEST(VocabularyTest, LookupUnknownReturnsInvalid) {
  Vocabulary v;
  EXPECT_EQ(v.Lookup("ghost"), kInvalidTermId);
  v.Intern("ghost");
  EXPECT_NE(v.Lookup("ghost"), kInvalidTermId);
}

TEST(VocabularyTest, TermStringRoundTrip) {
  Vocabulary v;
  TermId id = v.Intern("rockets");
  EXPECT_EQ(v.TermString(id), "rockets");
}

TEST(VocabularyTest, DenseIdsFromZero) {
  Vocabulary v;
  EXPECT_EQ(v.Intern("a"), 0u);
  EXPECT_EQ(v.Intern("b"), 1u);
  EXPECT_EQ(v.Intern("c"), 2u);
}

TEST(VocabularyTest, ReinterningReturnsTheSameTermStringBytes) {
  Vocabulary v;
  const std::string_view first = v.TermString(v.Intern("apple"));
  const std::string_view again = v.TermString(v.Intern("apple"));
  EXPECT_EQ(first.data(), again.data());  // same stored bytes, not a copy
  EXPECT_EQ(again, "apple");
  EXPECT_EQ(v.size(), 1u);
  EXPECT_NE(v.TermString(v.Intern("banana")).data(), first.data());
  EXPECT_EQ(v.size(), 2u);
}

TEST(VocabularyTest, OversizedTermsRoundTripAndReintern) {
  Vocabulary v;
  const std::string_view small = v.TermString(v.Intern("small"));
  const std::string huge(1 << 20, 'x');  // far past any small-string buffer
  const std::string_view stored = v.TermString(v.Intern(huge));
  EXPECT_EQ(stored, huge);
  EXPECT_EQ(v.TermString(v.Intern("small")).data(), small.data());
  EXPECT_EQ(v.TermString(v.Intern(huge)).data(), stored.data());
  EXPECT_EQ(v.size(), 2u);
}

TEST(VocabularyTest, ViewsSurviveManyLaterInterns) {
  Vocabulary v;
  const std::string long_term = "a-term-long-enough-to-live-on-the-heap";
  const std::string_view short_view = v.TermString(v.Intern("apple"));
  const std::string_view long_view = v.TermString(v.Intern(long_term));
  for (int i = 0; i < 10000; ++i) v.Intern("term-" + std::to_string(i));
  ASSERT_EQ(v.size(), 10002u);
  // The id map rehashed many times meanwhile; the earlier views still read
  // intact bytes, and they are the bytes the vocabulary hands out now.
  EXPECT_EQ(short_view, "apple");
  EXPECT_EQ(long_view, long_term);
  EXPECT_EQ(v.TermString(v.Lookup("apple")).data(), short_view.data());
  EXPECT_EQ(v.TermString(v.Lookup(long_term)).data(), long_view.data());
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(v.TermString(v.Lookup("term-" + std::to_string(i))),
              "term-" + std::to_string(i));
  }
}

// ---------------------------------------------------------------- Analyzer

TEST(AnalyzerTest, RemovesStopwordsByDefault) {
  Analyzer a;
  auto ids = a.Analyze("the apple is on the tree");
  std::vector<std::string> words;
  for (TermId id : ids) words.emplace_back(a.vocabulary().TermString(id));
  EXPECT_EQ(words, (std::vector<std::string>{"apple", "tree"}));
}

TEST(AnalyzerTest, PreservesDuplicatesForTermFrequency) {
  Analyzer a;
  auto ids = a.Analyze("apple apple apple pie");
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(ids[1], ids[2]);
  EXPECT_NE(ids[2], ids[3]);
}

TEST(AnalyzerTest, StemmingOption) {
  AnalyzerOptions options;
  options.stem = true;
  Analyzer a(options);
  auto ids = a.Analyze("running runner");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(a.vocabulary().TermString(ids[0]), "run");
  EXPECT_EQ(a.vocabulary().TermString(ids[1]), "runner");
}

TEST(AnalyzerTest, ReadOnlyAnalysisDropsUnknownTerms) {
  Analyzer a;
  a.Analyze("apple store");
  auto ids = a.AnalyzeReadOnly("apple ghost store");
  EXPECT_EQ(ids.size(), 2u);
  // Vocabulary unchanged by read-only analysis.
  EXPECT_EQ(a.vocabulary().Lookup("ghost"), kInvalidTermId);
}

TEST(AnalyzerTest, InternVerbatimSkipsTokenization) {
  Analyzer a;
  TermId id = a.InternVerbatim("tv:brand:toshiba");
  EXPECT_EQ(a.vocabulary().TermString(id), "tv:brand:toshiba");
  // A regular analysis of the same string splits it into words instead.
  auto ids = a.Analyze("tv:brand:toshiba");
  EXPECT_EQ(ids.size(), 3u);
}

TEST(AnalyzerTest, QueryAndDocumentAgreeOnTermIds) {
  Analyzer a;
  auto doc_ids = a.Analyze("canon camera zoom");
  auto query_ids = a.AnalyzeReadOnly("camera");
  ASSERT_EQ(query_ids.size(), 1u);
  EXPECT_EQ(query_ids[0], doc_ids[1]);
}

}  // namespace
}  // namespace qec::text
