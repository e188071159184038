// Tests for the versioned snapshot format (storage/snapshot.h): CRC-32,
// round-trips over text and structured corpora, the lazy section reader,
// and corruption handling. The corruption suites are exhaustive — every
// single-byte flip and every truncation of a snapshot must be rejected
// with StatusCode::kCorruption, never undefined behavior — which is what
// lets `serve --snapshot` trust a file it did not write.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "core/query_expander.h"
#include "datagen/shopping.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "storage/snapshot.h"

namespace qec::storage {
namespace {

// ------------------------------------------------------------------ crc32

TEST(SnapshotCrc32Test, KnownCheckValue) {
  // The standard CRC-32 check value: crc("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(SnapshotCrc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(""), 0u); }

TEST(SnapshotCrc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32Update(0, std::string_view(data).substr(0, split));
    crc = Crc32Update(crc, std::string_view(data).substr(split));
    EXPECT_EQ(crc, Crc32(data)) << "split at " << split;
  }
}

TEST(SnapshotCrc32Test, DetectsSingleBitFlips) {
  std::string data = "snapshot payload bytes";
  const uint32_t good = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32(data), good) << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<char>(1 << bit);
    }
  }
}

// ------------------------------------------------------------ test corpora

/// TextCorpus()'s documents as {title, body}.
constexpr std::pair<const char*, const char*> kTextDocs[] = {
    {"apple store", "apple store opens with iphone"},
    {"apple orchard", "apple orchard fruit cider apple"},
    {"java island", "java island volcano coffee"},
};

doc::Corpus TextCorpus() {
  doc::Corpus corpus;
  for (const auto& [title, body] : kTextDocs) {
    corpus.AddTextDocument(title, body);
  }
  return corpus;
}

doc::Corpus StructuredCorpus() {
  doc::Corpus corpus;
  corpus.AddStructuredDocument(
      "canon camera", {{"camera", "brand", "canon"},
                       {"camera", "model", "powershot 115"}});
  corpus.AddStructuredDocument(
      "nikon camera",
      {{"camera", "brand", "nikon"}, {"camera", "megapixels", "12"}});
  corpus.AddTextDocument("camera review", "camera review compares brands");
  return corpus;
}

void ExpectSameCorpus(const doc::Corpus& a, const doc::Corpus& b) {
  ASSERT_EQ(a.NumDocs(), b.NumDocs());
  const auto& va = a.analyzer().vocabulary();
  const auto& vb = b.analyzer().vocabulary();
  ASSERT_EQ(va.size(), vb.size());
  for (TermId t = 0; t < va.size(); ++t) {
    EXPECT_EQ(va.TermString(t), vb.TermString(t)) << t;
  }
  for (DocId d = 0; d < a.NumDocs(); ++d) {
    const auto& da = a.Get(d);
    const auto& db = b.Get(d);
    EXPECT_EQ(da.kind(), db.kind()) << d;
    EXPECT_EQ(da.title(), db.title()) << d;
    EXPECT_EQ(da.terms(), db.terms()) << d;
    EXPECT_EQ(da.features(), db.features()) << d;
  }
}

void ExpectSameIndex(const doc::Corpus& corpus,
                     const index::InvertedIndex& a,
                     const index::InvertedIndex& b) {
  const auto& vocab = corpus.analyzer().vocabulary();
  for (TermId t = 0; t < vocab.size(); ++t) {
    const auto& pa = a.Postings(t);
    const auto& pb = b.Postings(t);
    ASSERT_EQ(pa.size(), pb.size()) << vocab.TermString(t);
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].doc, pb[i].doc);
      EXPECT_EQ(pa[i].tf, pb[i].tf);
    }
  }
}

// -------------------------------------------------------------- round trip

TEST(SnapshotRoundTripTest, TextCorpus) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSameCorpus(corpus, *snapshot->corpus);
  ExpectSameIndex(corpus, index, *snapshot->index);
  EXPECT_EQ(snapshot->stats.num_docs, corpus.Stats().num_docs);
}

TEST(SnapshotRoundTripTest, StructuredCorpus) {
  doc::Corpus corpus = StructuredCorpus();
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSameCorpus(corpus, *snapshot->corpus);
  ExpectSameIndex(corpus, index, *snapshot->index);
}

TEST(SnapshotRoundTripTest, ShoppingCatalog) {
  doc::Corpus corpus = datagen::ShoppingGenerator().Generate();
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSameCorpus(corpus, *snapshot->corpus);
  ExpectSameIndex(corpus, index, *snapshot->index);
  // Search through the loaded index is identical.
  for (const char* q : {"canon camera", "samsung tv", "memory"}) {
    auto a = index.SearchText(q);
    auto b = snapshot->index->SearchText(q);
    ASSERT_EQ(a.size(), b.size()) << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
  // VSM relies on the document norms, which the loader recomputes rather
  // than reads.
  auto terms = corpus.analyzer().AnalyzeReadOnly("memory");
  auto va = index.SearchVsm(terms, 5);
  auto vb = snapshot->index->SearchVsm(terms, 5);
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].doc, vb[i].doc);
    EXPECT_DOUBLE_EQ(va[i].score, vb[i].score);
  }
}

TEST(SnapshotRoundTripTest, AnalyzerOptionsSurvive) {
  text::AnalyzerOptions options;
  options.stem = true;
  options.remove_stopwords = false;
  options.tokenizer.min_token_length = 2;
  doc::Corpus corpus(options);
  corpus.AddTextDocument("t", "the running dogs");
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const text::Analyzer& loaded = snapshot->corpus->analyzer();
  EXPECT_TRUE(loaded.options().stem);
  EXPECT_FALSE(loaded.options().remove_stopwords);
  EXPECT_EQ(loaded.options().tokenizer.min_token_length, 2u);
  // New text is analyzed the same way: "running" stems to "run".
  auto ids = loaded.AnalyzeReadOnly("running");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(loaded.vocabulary().TermString(ids[0]), "run");
}

TEST(SnapshotRoundTripTest, IndexSectionIsCompressed) {
  // Raw postings would take 8 bytes each (doc u32 + tf u32); the delta +
  // varbyte INDX section must take well under half of that.
  doc::Corpus corpus = datagen::ShoppingGenerator().Generate();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  auto indx = reader->Section(kSectionIndex);
  ASSERT_TRUE(indx.ok());
  size_t raw = 0;
  for (TermId t = 0; t < corpus.analyzer().vocabulary().size(); ++t) {
    raw += index.Postings(t).size() * 8;
  }
  EXPECT_LT(indx->size(), raw / 2);
}

TEST(SnapshotRoundTripTest, EmptyCorpus) {
  doc::Corpus corpus;
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->corpus->NumDocs(), 0u);
}

// ------------------------------------------------------------ lazy reader

TEST(SnapshotReaderTest, TocListsSectionsInWriteOrder) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->version(), kSnapshotFormatVersion);
  ASSERT_EQ(reader->sections().size(), 5u);
  const char* expected[] = {"META", "VOCA", "DOCS", "STAT", "INDX"};
  uint64_t prev_end = 12;  // header size
  for (size_t i = 0; i < 5; ++i) {
    const SectionInfo& s = reader->sections()[i];
    EXPECT_EQ(s.id, expected[i]);
    EXPECT_EQ(s.offset, prev_end) << "sections must be contiguous";
    prev_end = s.offset + s.length;
    auto payload = reader->Section(s.id);
    ASSERT_TRUE(payload.ok()) << s.id;
    EXPECT_EQ(payload->size(), s.length);
    EXPECT_EQ(Crc32(*payload), s.crc32);
  }
}

TEST(SnapshotReaderTest, ReadStatsDecodesOnlyStatSection) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  auto stats = reader->ReadStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto expected = corpus.Stats();
  EXPECT_EQ(stats->num_docs, expected.num_docs);
  EXPECT_EQ(stats->num_distinct_terms, expected.num_distinct_terms);
  EXPECT_EQ(stats->total_term_occurrences, expected.total_term_occurrences);
  EXPECT_DOUBLE_EQ(stats->avg_doc_length, expected.avg_doc_length);
}

TEST(SnapshotReaderTest, UnknownSectionIsNotFound) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->HasSection("ZZZZ"));
  auto missing = reader->Section("ZZZZ");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// -------------------------------------------------------------- corruption

void ExpectCorrupt(std::string_view blob, const std::string& what) {
  auto snapshot = DeserializeSnapshot(blob);
  ASSERT_FALSE(snapshot.ok()) << what;
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption)
      << what << ": " << snapshot.status().ToString();
}

TEST(SnapshotCorruptionTest, EveryByteFlipIsRejected) {
  // A full load touches every section, so flipping any byte of the file —
  // header, payloads, TOC, footer — must surface as Corruption.
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string mutated = blob;
    mutated[i] ^= 0x01;
    ExpectCorrupt(mutated, "bit 0 flip at byte " + std::to_string(i));
    mutated = blob;
    mutated[i] = static_cast<char>(~mutated[i]);
    ExpectCorrupt(mutated, "byte complement at " + std::to_string(i));
  }
}

TEST(SnapshotCorruptionTest, EveryTruncationIsRejected) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  for (size_t len = 0; len < blob.size(); ++len) {
    ExpectCorrupt(std::string_view(blob).substr(0, len),
                  "truncated to " + std::to_string(len));
  }
}

TEST(SnapshotCorruptionTest, TrailingGarbageIsRejected) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  ExpectCorrupt(blob + std::string(1, '\0'), "one appended byte");
  ExpectCorrupt(blob + "garbage", "appended garbage");
}

TEST(SnapshotCorruptionTest, SectionFlipDetectedBySectionRead) {
  // A flipped payload byte is caught by the per-section CRC even when only
  // that section is read.
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  for (const SectionInfo& s : reader->sections()) {
    std::string mutated = blob;
    mutated[s.offset + s.length / 2] ^= 0x40;
    auto r = SnapshotReader::Open(mutated);
    ASSERT_TRUE(r.ok()) << "TOC itself is intact";
    auto payload = r->Section(s.id);
    ASSERT_FALSE(payload.ok()) << s.id;
    EXPECT_EQ(payload.status().code(), StatusCode::kCorruption) << s.id;
  }
}

// Little-endian patch helpers for forging snapshot bytes with valid CRCs.
void PutU32(std::string& blob, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    blob[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU64(std::string& blob, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    blob[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint64_t GetU64(const std::string& blob, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(blob[pos + i]))
         << (8 * i);
  }
  return v;
}

// Re-checksums section `idx` and the TOC after a payload was edited, so
// validation reaches the semantic (cross-check) layer instead of stopping
// at a CRC mismatch.
void FixCrcs(std::string& blob, size_t idx, uint64_t offset, uint64_t length) {
  const size_t footer_pos = blob.size() - 20;
  const uint64_t toc_offset = GetU64(blob, footer_pos);
  // TOC entry: id[4] + offset u64 + length u64 + crc u32 = 24 bytes.
  const size_t entry_crc_pos = toc_offset + 4 + idx * 24 + 4 + 8 + 8;
  PutU32(blob, entry_crc_pos,
         Crc32(std::string_view(blob).substr(offset, length)));
  PutU32(blob, footer_pos + 8,
         Crc32(std::string_view(blob).substr(toc_offset,
                                             footer_pos - toc_offset)));
}

/// Applies `edit` to the payload of section `id` (keeping its length) and
/// re-checksums, so the load reaches the section's decoder.
std::string ForgeSection(const std::string& blob, std::string_view id,
                         const std::function<void(std::string&)>& edit) {
  auto reader = SnapshotReader::Open(blob);
  EXPECT_TRUE(reader.ok());
  const std::vector<SectionInfo>& sections = reader->sections();
  size_t idx = 0;
  while (idx < sections.size() && sections[idx].id != id) ++idx;
  if (idx == sections.size()) {
    ADD_FAILURE() << "no section " << id;
    return blob;
  }
  const SectionInfo& info = sections[idx];
  std::string payload = blob.substr(info.offset, info.length);
  edit(payload);
  EXPECT_EQ(payload.size(), info.length);
  std::string forged = blob;
  forged.replace(info.offset, info.length, payload);
  FixCrcs(forged, idx, info.offset, info.length);
  return forged;
}

TEST(SnapshotCorruptionTest, StatMismatchWithValidCrcsIsRejected) {
  // Forge a snapshot whose STAT section disagrees with the documents but
  // whose checksums are all valid — the semantic cross-check must catch it.
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string forged = ForgeSection(
      SerializeSnapshot(index), kSectionStats, [](std::string& payload) {
        ASSERT_EQ(payload.size(), 32u);  // 3 × u64 + f64
        PutU64(payload, 0, GetU64(payload, 0) + 1);  // num_docs + 1
      });

  // All checksums verify...
  auto r = SnapshotReader::Open(forged);
  ASSERT_TRUE(r.ok());
  for (const auto& s : r->sections()) {
    EXPECT_TRUE(r->Section(s.id).ok()) << s.id;
  }
  // ...but the load still fails on the STAT cross-check.
  auto snapshot = DeserializeSnapshot(forged);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, DocsOutOfRangeTermIdIsCorruption) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  const uint32_t vocab_size =
      static_cast<uint32_t>(corpus.analyzer().vocabulary().size());
  std::string forged =
      ForgeSection(SerializeSnapshot(index), kSectionDocs,
                   [&](std::string& payload) {
                     // count u32, then doc 0: kind u8, title (u32 length +
                     // bytes), num_terms u32, and its first term id.
                     const size_t first_term =
                         4 + 1 + 4 + corpus.Get(0).title().size() + 4;
                     PutU32(payload, first_term, vocab_size);
                   });
  auto snapshot = DeserializeSnapshot(forged);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snapshot.status().message().find("out of range"),
            std::string::npos)
      << snapshot.status().ToString();
}

TEST(SnapshotCorruptionTest, IndexTermCountMismatchIsCorruption) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  const size_t vocab_size = corpus.analyzer().vocabulary().size();
  ASSERT_LT(vocab_size + 1, 128u);  // the term count stays a 1-byte varint
  std::string forged = ForgeSection(
      SerializeSnapshot(index), kSectionIndex, [&](std::string& payload) {
        payload[0] = static_cast<char>(vocab_size + 1);
      });
  auto snapshot = DeserializeSnapshot(forged);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snapshot.status().message().find("vocabulary"), std::string::npos)
      << snapshot.status().ToString();
}

TEST(SnapshotCorruptionTest, UnsupportedVersionIsRejected) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  PutU32(blob, 8, kSnapshotFormatVersion + 1);  // version follows the magic
  auto snapshot = DeserializeSnapshot(blob);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snapshot.status().message().find("version"), std::string::npos);
}

TEST(SnapshotFuzzTest, RandomMutationsNeverCrash) {
  doc::Corpus corpus = StructuredCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = blob;
    const size_t flips = 1 + rng.UniformInt(6);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(mutated.size())] =
          static_cast<char>(rng.UniformInt(256));
    }
    auto snapshot = DeserializeSnapshot(mutated);  // must not crash
    if (!snapshot.ok()) {
      EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(SnapshotFuzzTest, IndexPayloadMutationsNeverCrash) {
  // The CRCs are fixed after every mutation, so the mutated bytes reach
  // the INDX decoder (ReadVarint / DecodePostings and the doc-id checks)
  // instead of stopping at the checksum.
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  const std::string blob = SerializeSnapshot(index);
  Rng rng(77);
  int rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated =
        ForgeSection(blob, kSectionIndex, [&](std::string& payload) {
          const size_t flips = 1 + rng.UniformInt(4);
          for (size_t f = 0; f < flips; ++f) {
            payload[rng.UniformInt(payload.size())] =
                static_cast<char>(rng.UniformInt(256));
          }
        });
    auto snapshot = DeserializeSnapshot(mutated);  // must not crash
    if (!snapshot.ok()) {
      EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

// -------------------------------------------------------------------- file

TEST(SnapshotFileTest, WriteReadRoundTrip) {
  const std::string path = "/tmp/qec_storage_test.qsnap";
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  ASSERT_TRUE(WriteSnapshot(index, path).ok());
  auto snapshot = ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSameCorpus(corpus, *snapshot->corpus);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingFileIsNotFound) {
  auto snapshot = ReadSnapshot("/tmp/qec_missing_snapshot_31415.qsnap");
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------- corpus-only load path

/// Restores only the corpus sections (META + VOCA + DOCS) of `blob`.
Result<doc::Corpus> LoadCorpusOnly(std::string_view blob) {
  auto reader = SnapshotReader::Open(blob);
  if (!reader.ok()) return reader.status();
  return reader->LoadCorpus();
}

std::string CorpusSnapshot(const doc::Corpus& corpus) {
  index::InvertedIndex index(corpus);
  return SerializeSnapshot(index);
}

doc::Corpus MixedCorpus() {
  doc::Corpus corpus;
  corpus.AddTextDocument("t0", "apple store iphone apple");
  corpus.AddTextDocument("t1", "apple fruit orchard");
  corpus.AddStructuredDocument(
      "p0", {{"Canon products", "category", "camera"},
             {"camera", "shutter speed", "15 - 1/3200 sec."}});
  return corpus;
}

TEST(CorpusIoTest, RoundTripPreservesEverything) {
  doc::Corpus original = MixedCorpus();
  auto loaded = LoadCorpusOnly(CorpusSnapshot(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCorpus(original, *loaded);
  // Term strings survive with identical ids.
  TermId apple = original.analyzer().vocabulary().Lookup("apple");
  EXPECT_EQ(loaded->analyzer().vocabulary().TermString(apple), "apple");
}

TEST(CorpusIoTest, LoadedCorpusIndexesIdentically) {
  doc::Corpus original = MixedCorpus();
  auto loaded = LoadCorpusOnly(CorpusSnapshot(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // A fresh index over the loaded corpus ranks like one over the original.
  index::InvertedIndex idx_a(original);
  index::InvertedIndex idx_b(*loaded);
  auto ra = idx_a.SearchText("apple");
  auto rb = idx_b.SearchText("apple");
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].doc, rb[i].doc);
    EXPECT_DOUBLE_EQ(ra[i].score, rb[i].score);
  }
}

TEST(CorpusIoTest, BadMagicIsCorruption) {
  std::string blob = CorpusSnapshot(MixedCorpus());
  blob[0] = 'X';
  auto loaded = LoadCorpusOnly(blob);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(CorpusIoTest, TruncationIsCorruption) {
  std::string blob = CorpusSnapshot(MixedCorpus());
  for (size_t cut : {blob.size() - 1, blob.size() / 2, size_t{9}}) {
    auto loaded = LoadCorpusOnly(blob.substr(0, cut));
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

TEST(CorpusIoTest, TrailingBytesAreCorruption) {
  std::string blob = CorpusSnapshot(MixedCorpus());
  blob += "junk";
  auto loaded = LoadCorpusOnly(blob);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(CorpusIoTest, SaveLoadFile) {
  const std::string path = "/tmp/qec_storage_corpus_test.qsnap";
  doc::Corpus original = MixedCorpus();
  index::InvertedIndex index(original);
  ASSERT_TRUE(WriteSnapshot(index, path).ok());
  auto blob = ReadSnapshotBlob(path);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto loaded = LoadCorpusOnly(*blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumDocs(), original.NumDocs());
  std::remove(path.c_str());
}

TEST(CorpusIoTest, LoadMissingFileIsNotFound) {
  auto blob = ReadSnapshotBlob("/tmp/qec_no_such_file_12345.qsnap");
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kNotFound);
}

TEST(CorpusIoTest, EmptyCorpusRoundTrips) {
  auto loaded = LoadCorpusOnly(CorpusSnapshot(doc::Corpus()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumDocs(), 0u);
}

// -------------------------------------------------- index-only load path

/// Restores the INDX section of a shopping-catalog snapshot over the
/// caller's in-memory corpus, without reloading the corpus sections.
class IndexIoFixture : public ::testing::Test {
 protected:
  IndexIoFixture()
      : corpus_(datagen::ShoppingGenerator().Generate()),
        index_(corpus_),
        blob_(SerializeSnapshot(index_)) {}

  Result<index::InvertedIndex> LoadIndexOnly(std::string_view blob) const {
    auto reader = SnapshotReader::Open(blob);
    if (!reader.ok()) return reader.status();
    return reader->LoadIndex(corpus_);
  }

  doc::Corpus corpus_;
  index::InvertedIndex index_;
  std::string blob_;
};

TEST_F(IndexIoFixture, RoundTripMatchesRebuild) {
  auto loaded = LoadIndexOnly(blob_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameIndex(corpus_, index_, *loaded);
}

TEST_F(IndexIoFixture, LoadedIndexSearchesIdentically) {
  auto loaded = LoadIndexOnly(blob_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const char* q : {"canon products", "memory 8gb", "tv plasma"}) {
    auto a = index_.SearchText(q);
    auto b = loaded->SearchText(q);
    ASSERT_EQ(a.size(), b.size()) << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
  // VSM relies on the document norms LoadIndex recomputes.
  auto terms = corpus_.analyzer().AnalyzeReadOnly("memory");
  auto va = index_.SearchVsm(terms, 5);
  auto vb = loaded->SearchVsm(terms, 5);
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].doc, vb[i].doc);
    EXPECT_DOUBLE_EQ(va[i].score, vb[i].score);
  }
}

TEST_F(IndexIoFixture, BadMagicAndTruncation) {
  std::string bad = blob_;
  bad[0] = 'Z';
  for (const std::string& input :
       {bad, blob_.substr(0, 4), blob_.substr(0, blob_.size() / 2),
        blob_ + "x"}) {
    auto loaded = LoadIndexOnly(input);
    ASSERT_FALSE(loaded.ok()) << input.size();
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(IndexIoFixture, SaveLoadFile) {
  const std::string path = "/tmp/qec_storage_index_test.qsnap";
  ASSERT_TRUE(WriteSnapshot(index_, path).ok());
  auto blob = ReadSnapshotBlob(path);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto loaded = LoadIndexOnly(*blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  TermId canon = corpus_.analyzer().vocabulary().Lookup("canon");
  EXPECT_EQ(loaded->DocumentFrequency(canon),
            index_.DocumentFrequency(canon));
  std::remove(path.c_str());
}

TEST_F(IndexIoFixture, MissingFileIsNotFound) {
  auto blob = ReadSnapshotBlob("/tmp/qec_missing_index_98765.qsnap");
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------- determinism

std::string Fingerprint(const core::ExpansionOutcome& outcome) {
  char buf[128];
  std::string fp;
  std::snprintf(buf, sizeof(buf), "score=%.17g;k=%zu;n=%zu\n",
                outcome.set_score, outcome.num_clusters,
                outcome.num_results_used);
  fp += buf;
  for (const auto& q : outcome.queries) {
    fp += "q:";
    for (TermId t : q.terms) fp += std::to_string(t) + ",";
    for (const auto& k : q.keywords) fp += k + "|";
    std::snprintf(buf, sizeof(buf), "P=%.17g;R=%.17g;F=%.17g\n",
                  q.quality.precision, q.quality.recall,
                  q.quality.f_measure);
    fp += buf;
  }
  return fp;
}

// ----------------------------------------------------------- PERM section

/// A snapshot of a permuted corpus, as older builds wrote with doc-id
/// reordering: TextCorpus()'s documents added in a handcrafted
/// (non-identity) order, serialized with the PERM section.
struct PermutedFixture {
  std::vector<DocId> order = {2, 0, 1};
  std::string blob;
  doc::Corpus original = TextCorpus();

  PermutedFixture() {
    doc::Corpus permuted;
    for (DocId d : order) {
      permuted.AddTextDocument(kTextDocs[d].first, kTextDocs[d].second);
    }
    index::InvertedIndex index(permuted);
    blob = SerializeSnapshot(index, order);
  }
};

TEST(SnapshotPermTest, RoundTripInstallsExternalIds) {
  PermutedFixture fx;
  auto snapshot = DeserializeSnapshot(fx.blob);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->external_ids, fx.order);
  EXPECT_EQ(snapshot->index->external_ids(), fx.order);
  // Document i is the original document order[i].
  for (DocId i = 0; i < snapshot->corpus->NumDocs(); ++i) {
    EXPECT_EQ(snapshot->corpus->Get(i).title(),
              fx.original.Get(fx.order[i]).title());
  }
}

TEST(SnapshotPermTest, PermIsTheLastTocSection) {
  PermutedFixture fx;
  auto reader = SnapshotReader::Open(fx.blob);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->sections().size(), 6u);
  EXPECT_EQ(reader->sections().back().id, kSectionPerm);
  // Readers that predate PERM skip unknown sections, so the version is
  // unchanged.
  EXPECT_EQ(reader->version(), kSnapshotFormatVersion);
}

TEST(SnapshotPermTest, AbsentPermIsNotFoundAndIdentity) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->HasSection(kSectionPerm));
  auto perm = reader->ReadPermutation();
  ASSERT_FALSE(perm.ok());
  EXPECT_EQ(perm.status().code(), StatusCode::kNotFound);
  auto snapshot = reader->Load();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->external_ids.empty());
  EXPECT_TRUE(snapshot->index->external_ids().empty());
}

TEST(SnapshotPermTest, EveryPermByteFlipIsRejected) {
  PermutedFixture fx;
  auto reader = SnapshotReader::Open(fx.blob);
  ASSERT_TRUE(reader.ok());
  auto perm_info = reader->Section(kSectionPerm);
  ASSERT_TRUE(perm_info.ok());
  const SectionInfo& info = reader->sections().back();
  for (uint64_t i = 0; i < info.length; ++i) {
    std::string mutated = fx.blob;
    mutated[info.offset + i] ^= 0x01;
    ExpectCorrupt(mutated, "PERM flip at byte " + std::to_string(i));
  }
}

/// Forges the PERM payload through `edit`, re-checksums, and expects both
/// ReadPermutation and the full Load to reject with Corruption — the
/// semantic validation layer past the CRCs.
void ExpectForgedPermRejected(const std::function<void(std::string&)>& edit,
                              const std::string& what) {
  PermutedFixture fx;
  std::string forged = ForgeSection(fx.blob, kSectionPerm, edit);
  auto forged_reader = SnapshotReader::Open(forged);
  ASSERT_TRUE(forged_reader.ok()) << what;
  auto perm = forged_reader->ReadPermutation();
  ASSERT_FALSE(perm.ok()) << what;
  EXPECT_EQ(perm.status().code(), StatusCode::kCorruption)
      << what << ": " << perm.status().ToString();
  ExpectCorrupt(forged, what);
}

TEST(SnapshotPermTest, CountMismatchIsCorruption) {
  // The satellite contract: a PERM section whose length differs from the
  // snapshot's doc count is Corruption, even with valid CRCs.
  ExpectForgedPermRejected(
      [](std::string& payload) {
        PutU32(payload, 0, 99);  // count field: != 3 docs
      },
      "forged count");
}

TEST(SnapshotPermTest, OutOfRangeIdIsCorruption) {
  ExpectForgedPermRejected(
      [](std::string& payload) {
        PutU32(payload, 4, 7);  // first id: >= doc count
      },
      "out-of-range id");
}

TEST(SnapshotPermTest, DuplicateIdIsCorruption) {
  ExpectForgedPermRejected(
      [](std::string& payload) {
        PutU32(payload, 8, 2);  // second id repeats the first (2)
      },
      "duplicate id");
}

TEST(SnapshotPermTest, FileRoundTripCarriesThePermutation) {
  const std::string path = "/tmp/qec_storage_perm_test.qsnap";
  PermutedFixture fx;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(fx.blob.data(), 1, fx.blob.size(), f),
            fx.blob.size());
  std::fclose(f);
  auto snapshot = ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->external_ids, fx.order);
  std::remove(path.c_str());
}

TEST(SnapshotDeterminismTest, ExpansionsMatchInMemoryBuild) {
  // The acceptance bar for the format: expansion over a snapshot-loaded
  // index is byte-identical to expansion over the in-memory build, for all
  // three algorithms.
  doc::Corpus corpus = datagen::ShoppingGenerator().Generate();
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  for (auto algorithm : {core::ExpansionAlgorithm::kIskr,
                         core::ExpansionAlgorithm::kPebc,
                         core::ExpansionAlgorithm::kFMeasure}) {
    core::QueryExpanderOptions options;
    options.algorithm = algorithm;
    core::QueryExpander in_memory(index, options);
    core::QueryExpander from_snapshot(*snapshot->index, options);
    for (const char* query : {"camera", "canon", "tv"}) {
      auto a = in_memory.ExpandText(query);
      auto b = from_snapshot.ExpandText(query);
      ASSERT_EQ(a.ok(), b.ok()) << query;
      if (!a.ok()) continue;
      EXPECT_EQ(Fingerprint(*a), Fingerprint(*b))
          << query << " algorithm "
          << std::string(core::AlgorithmName(algorithm));
    }
  }
}

}  // namespace
}  // namespace qec::storage
