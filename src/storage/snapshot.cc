#include "storage/snapshot.h"

#include <cstdio>
#include <utility>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "index/posting_codec.h"
#include "obs/metrics.h"

namespace qec::storage {

namespace {

constexpr size_t kHeaderSize = 12;  // magic (8) + version u32
constexpr size_t kFooterSize = 20;  // toc_offset u64 + toc_crc u32 + magic

uint64_t ElapsedNs(const Stopwatch& watch) {
  return static_cast<uint64_t>(watch.ElapsedSeconds() * 1e9);
}

// ------------------------------------------------------- section payloads

std::string EncodeMetaSection(const doc::Corpus& corpus) {
  const text::AnalyzerOptions& a = corpus.analyzer().options();
  BinaryWriter w;
  w.U8(a.tokenizer.lowercase ? 1 : 0);
  w.U8(a.tokenizer.keep_numbers ? 1 : 0);
  w.U32(static_cast<uint32_t>(a.tokenizer.min_token_length));
  w.Str(a.tokenizer.intra_token_chars);
  w.U8(a.remove_stopwords ? 1 : 0);
  w.U8(a.stem ? 1 : 0);
  return w.Take();
}

std::string EncodeVocabSection(const doc::Corpus& corpus) {
  const text::Vocabulary& vocab = corpus.analyzer().vocabulary();
  BinaryWriter w;
  w.U32(static_cast<uint32_t>(vocab.size()));
  // Id order, so re-interning on load restores identical TermIds.
  for (TermId t = 0; t < vocab.size(); ++t) w.Str(vocab.TermString(t));
  return w.Take();
}

std::string EncodeDocsSection(const doc::Corpus& corpus) {
  BinaryWriter w;
  w.U32(static_cast<uint32_t>(corpus.NumDocs()));
  for (DocId d = 0; d < corpus.NumDocs(); ++d) {
    const doc::Document& document = corpus.Get(d);
    w.U8(document.kind() == doc::DocumentKind::kStructured ? 1 : 0);
    w.Str(document.title());
    w.U32(static_cast<uint32_t>(document.terms().size()));
    for (TermId t : document.terms()) w.U32(t);
    w.U32(static_cast<uint32_t>(document.features().size()));
    for (const doc::Feature& f : document.features()) {
      w.Str(f.entity);
      w.Str(f.attribute);
      w.Str(f.value);
    }
  }
  return w.Take();
}

std::string EncodePermSection(const std::vector<DocId>& external_ids) {
  BinaryWriter w;
  w.U32(static_cast<uint32_t>(external_ids.size()));
  for (DocId d : external_ids) w.U32(d);
  return w.Take();
}

std::string EncodeStatsSection(const doc::CorpusStats& stats) {
  BinaryWriter w;
  w.U64(stats.num_docs);
  w.U64(stats.num_distinct_terms);
  w.U64(stats.total_term_occurrences);
  w.F64(stats.avg_doc_length);
  return w.Take();
}

std::string EncodeIndexSection(const index::InvertedIndex& index) {
  // Term count, then one length-prefixed delta + varbyte posting blob
  // (index/posting_codec.h) per term, in TermId order.
  std::string out;
  const size_t num_terms = index.corpus().analyzer().vocabulary().size();
  index::AppendVarint(num_terms, out);
  for (TermId t = 0; t < num_terms; ++t) {
    std::string blob = index::EncodePostings(index.Postings(t));
    index::AppendVarint(blob.size(), out);
    out += blob;
  }
  return out;
}

Result<text::AnalyzerOptions> DecodeMetaSection(std::string_view payload) {
  BinaryReader r(payload, "snapshot META section");
  text::AnalyzerOptions options;
  uint8_t flag = 0;
  uint32_t u = 0;
  QEC_RETURN_IF_ERROR(r.U8(flag));
  options.tokenizer.lowercase = flag != 0;
  QEC_RETURN_IF_ERROR(r.U8(flag));
  options.tokenizer.keep_numbers = flag != 0;
  QEC_RETURN_IF_ERROR(r.U32(u));
  options.tokenizer.min_token_length = u;
  QEC_RETURN_IF_ERROR(r.Str(options.tokenizer.intra_token_chars));
  QEC_RETURN_IF_ERROR(r.U8(flag));
  options.remove_stopwords = flag != 0;
  QEC_RETURN_IF_ERROR(r.U8(flag));
  options.stem = flag != 0;
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot META section");
  }
  return options;
}

}  // namespace

// ----------------------------------------------------------------- write

std::string SerializeSnapshot(const index::InvertedIndex& index) {
  return SerializeSnapshot(index, {});
}

std::string SerializeSnapshot(const index::InvertedIndex& index,
                              const std::vector<DocId>& external_ids) {
  Stopwatch watch;
  const doc::Corpus& corpus = index.corpus();

  std::vector<std::pair<std::string_view, std::string>> payloads;
  payloads.emplace_back(kSectionMeta, EncodeMetaSection(corpus));
  payloads.emplace_back(kSectionVocab, EncodeVocabSection(corpus));
  payloads.emplace_back(kSectionDocs, EncodeDocsSection(corpus));
  payloads.emplace_back(kSectionStats, EncodeStatsSection(corpus.Stats()));
  payloads.emplace_back(kSectionIndex, EncodeIndexSection(index));
  if (!external_ids.empty()) {
    QEC_CHECK_EQ(external_ids.size(), corpus.NumDocs());
    payloads.emplace_back(kSectionPerm, EncodePermSection(external_ids));
  }

  BinaryWriter w;
  w.Raw(kSnapshotMagic);
  w.U32(kSnapshotFormatVersion);

  std::vector<SectionInfo> toc;
  for (const auto& [id, payload] : payloads) {
    SectionInfo info;
    info.id = id;
    info.offset = w.size();
    info.length = payload.size();
    info.crc32 = Crc32(payload);
    toc.push_back(std::move(info));
    w.Raw(payload);
  }

  const uint64_t toc_offset = w.size();
  BinaryWriter toc_writer;
  toc_writer.U32(static_cast<uint32_t>(toc.size()));
  for (const SectionInfo& info : toc) {
    toc_writer.Raw(info.id);
    toc_writer.U64(info.offset);
    toc_writer.U64(info.length);
    toc_writer.U32(info.crc32);
  }
  std::string toc_bytes = toc_writer.Take();
  w.Raw(toc_bytes);
  w.U64(toc_offset);
  w.U32(Crc32(toc_bytes));
  w.Raw(kSnapshotFooterMagic);

  std::string blob = w.Take();
  QEC_COUNTER_INC("storage/snapshot_writes");
  QEC_COUNTER_ADD("storage/snapshot_write_bytes", blob.size());
  QEC_HISTOGRAM_RECORD("storage/snapshot_write_ns", ElapsedNs(watch));
  return blob;
}

Status WriteSnapshot(const index::InvertedIndex& index,
                     const std::string& path) {
  std::string blob = SerializeSnapshot(index);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  if (std::fwrite(blob.data(), 1, blob.size(), f.get()) != blob.size()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::Ok();
}

// ------------------------------------------------------------------ open

Result<SnapshotReader> SnapshotReader::Open(std::string_view data) {
  if (data.size() < kHeaderSize + kFooterSize) {
    return Status::Corruption("snapshot smaller than header + footer");
  }
  if (data.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic");
  }
  if (data.substr(data.size() - kSnapshotFooterMagic.size()) !=
      kSnapshotFooterMagic) {
    return Status::Corruption("bad snapshot footer magic");
  }

  SnapshotReader reader(data);
  {
    BinaryReader header(data.substr(kSnapshotMagic.size(), 4),
                        "snapshot header");
    QEC_RETURN_IF_ERROR(header.U32(reader.version_));
  }
  if (reader.version_ != kSnapshotFormatVersion) {
    return Status::Corruption(
        "unsupported snapshot format version " +
        std::to_string(reader.version_) + " (reader supports version " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }

  const size_t footer_start = data.size() - kFooterSize;
  BinaryReader footer(data.substr(footer_start, 12), "snapshot footer");
  uint64_t toc_offset = 0;
  uint32_t toc_crc = 0;
  QEC_RETURN_IF_ERROR(footer.U64(toc_offset));
  QEC_RETURN_IF_ERROR(footer.U32(toc_crc));
  if (toc_offset < kHeaderSize || toc_offset > footer_start) {
    return Status::Corruption("snapshot TOC offset out of bounds");
  }
  std::string_view toc_bytes =
      data.substr(toc_offset, footer_start - toc_offset);
  if (Crc32(toc_bytes) != toc_crc) {
    return Status::Corruption("snapshot TOC checksum mismatch");
  }

  BinaryReader toc(toc_bytes, "snapshot TOC");
  uint32_t count = 0;
  QEC_RETURN_IF_ERROR(toc.U32(count));
  if (count > toc_bytes.size()) {
    return Status::Corruption("implausible snapshot section count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    SectionInfo info;
    for (int c = 0; c < 4; ++c) {
      uint8_t byte = 0;
      QEC_RETURN_IF_ERROR(toc.U8(byte));
      info.id.push_back(static_cast<char>(byte));
    }
    QEC_RETURN_IF_ERROR(toc.U64(info.offset));
    QEC_RETURN_IF_ERROR(toc.U64(info.length));
    QEC_RETURN_IF_ERROR(toc.U32(info.crc32));
    if (info.offset < kHeaderSize || info.offset > toc_offset ||
        info.length > toc_offset - info.offset) {
      return Status::Corruption("snapshot section '" + info.id +
                                "' out of bounds");
    }
    if (reader.HasSection(info.id)) {
      return Status::Corruption("duplicate snapshot section '" + info.id +
                                "'");
    }
    reader.sections_.push_back(std::move(info));
  }
  if (!toc.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot TOC");
  }
  return reader;
}

bool SnapshotReader::HasSection(std::string_view id) const {
  for (const SectionInfo& s : sections_) {
    if (s.id == id) return true;
  }
  return false;
}

Result<std::string_view> SnapshotReader::Section(std::string_view id) const {
  for (const SectionInfo& s : sections_) {
    if (s.id != id) continue;
    std::string_view payload = data_.substr(s.offset, s.length);
    if (Crc32(payload) != s.crc32) {
      return Status::Corruption("snapshot section '" + s.id +
                                "' checksum mismatch");
    }
    return payload;
  }
  return Status::NotFound("snapshot has no '" + std::string(id) +
                          "' section");
}

// ------------------------------------------------------------------ load

Result<doc::CorpusStats> SnapshotReader::ReadStats() const {
  auto payload = Section(kSectionStats);
  if (!payload.ok()) return payload.status();
  BinaryReader r(*payload, "snapshot STAT section");
  doc::CorpusStats stats;
  uint64_t u = 0;
  QEC_RETURN_IF_ERROR(r.U64(u));
  stats.num_docs = u;
  QEC_RETURN_IF_ERROR(r.U64(u));
  stats.num_distinct_terms = u;
  QEC_RETURN_IF_ERROR(r.U64(u));
  stats.total_term_occurrences = u;
  QEC_RETURN_IF_ERROR(r.F64(stats.avg_doc_length));
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot STAT section");
  }
  return stats;
}

Result<std::vector<DocId>> SnapshotReader::ReadPermutation() const {
  auto payload = Section(kSectionPerm);
  if (!payload.ok()) return payload.status();
  auto stats = ReadStats();
  if (!stats.ok()) return stats.status();
  BinaryReader r(*payload, "snapshot PERM section");
  uint32_t count = 0;
  QEC_RETURN_IF_ERROR(r.U32(count));
  if (count != stats->num_docs) {
    return Status::Corruption(
        "snapshot PERM section has " + std::to_string(count) +
        " entries but the snapshot holds " + std::to_string(stats->num_docs) +
        " documents");
  }
  std::vector<DocId> external_ids;
  external_ids.reserve(count);
  std::vector<uint8_t> seen(count, 0);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t d = 0;
    QEC_RETURN_IF_ERROR(r.U32(d));
    if (d >= count) {
      return Status::Corruption("snapshot PERM entry " + std::to_string(d) +
                                " out of range");
    }
    if (seen[d] != 0) {
      return Status::Corruption("snapshot PERM is not a permutation (doc " +
                                std::to_string(d) + " repeats)");
    }
    seen[d] = 1;
    external_ids.push_back(d);
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot PERM section");
  }
  return external_ids;
}

Result<doc::Corpus> SnapshotReader::LoadCorpus() const {
  auto meta = Section(kSectionMeta);
  if (!meta.ok()) return meta.status();
  auto options = DecodeMetaSection(*meta);
  if (!options.ok()) return options.status();
  doc::Corpus corpus(*options);

  auto voca = Section(kSectionVocab);
  if (!voca.ok()) return voca.status();
  BinaryReader vr(*voca, "snapshot VOCA section");
  uint32_t vocab_size = 0;
  QEC_RETURN_IF_ERROR(vr.U32(vocab_size));
  if (vocab_size > voca->size()) {
    return Status::Corruption("implausible snapshot vocabulary size");
  }
  corpus.analyzer().vocabulary().Reserve(vocab_size);
  std::string term;
  for (uint32_t i = 0; i < vocab_size; ++i) {
    QEC_RETURN_IF_ERROR(vr.Str(term));
    if (corpus.analyzer().InternVerbatim(term) != i) {
      return Status::Corruption("duplicate snapshot vocabulary entry '" +
                                term + "'");
    }
  }
  if (!vr.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot VOCA section");
  }

  auto docs = Section(kSectionDocs);
  if (!docs.ok()) return docs.status();
  BinaryReader dr(*docs, "snapshot DOCS section");
  uint32_t num_docs = 0;
  QEC_RETURN_IF_ERROR(dr.U32(num_docs));
  for (uint32_t d = 0; d < num_docs; ++d) {
    uint8_t kind_flag = 0;
    QEC_RETURN_IF_ERROR(dr.U8(kind_flag));
    std::string title;
    QEC_RETURN_IF_ERROR(dr.Str(title));
    uint32_t num_terms = 0;
    QEC_RETURN_IF_ERROR(dr.U32(num_terms));
    if (num_terms > dr.remaining() / 4) {
      return Status::Corruption("implausible snapshot document term count");
    }
    std::vector<TermId> terms;
    terms.reserve(num_terms);
    for (uint32_t i = 0; i < num_terms; ++i) {
      uint32_t t = 0;
      QEC_RETURN_IF_ERROR(dr.U32(t));
      if (t >= vocab_size) {
        return Status::Corruption("snapshot term id " + std::to_string(t) +
                                  " out of range");
      }
      terms.push_back(t);
    }
    uint32_t num_features = 0;
    QEC_RETURN_IF_ERROR(dr.U32(num_features));
    if (num_features > dr.remaining()) {
      return Status::Corruption("implausible snapshot feature count");
    }
    std::vector<doc::Feature> features;
    features.reserve(num_features);
    for (uint32_t i = 0; i < num_features; ++i) {
      doc::Feature f;
      QEC_RETURN_IF_ERROR(dr.Str(f.entity));
      QEC_RETURN_IF_ERROR(dr.Str(f.attribute));
      QEC_RETURN_IF_ERROR(dr.Str(f.value));
      features.push_back(std::move(f));
    }
    corpus.RestoreDocument(kind_flag != 0 ? doc::DocumentKind::kStructured
                                          : doc::DocumentKind::kText,
                           std::move(title), std::move(terms),
                           std::move(features));
  }
  if (!dr.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot DOCS section");
  }

  // Cross-check the stored statistics against the restored corpus: a CRC
  // collision or writer bug must not go unnoticed.
  auto stored = ReadStats();
  if (!stored.ok()) return stored.status();
  doc::CorpusStats actual = corpus.Stats();
  if (stored->num_docs != actual.num_docs ||
      stored->num_distinct_terms != actual.num_distinct_terms ||
      stored->total_term_occurrences != actual.total_term_occurrences ||
      stored->avg_doc_length != actual.avg_doc_length) {
    return Status::Corruption(
        "snapshot STAT section disagrees with restored corpus");
  }
  return corpus;
}

Result<index::InvertedIndex> SnapshotReader::LoadIndex(
    const doc::Corpus& corpus) const {
  auto indx = Section(kSectionIndex);
  if (!indx.ok()) return indx.status();
  std::string_view data = *indx;
  size_t pos = 0;
  auto num_terms = index::ReadVarint(data, &pos);
  if (!num_terms.ok()) return num_terms.status();
  if (*num_terms != corpus.analyzer().vocabulary().size()) {
    return Status::Corruption(
        "snapshot index has " + std::to_string(*num_terms) +
        " terms but the corpus vocabulary has " +
        std::to_string(corpus.analyzer().vocabulary().size()));
  }
  std::vector<std::vector<index::Posting>> postings(*num_terms);
  for (uint64_t t = 0; t < *num_terms; ++t) {
    auto len = index::ReadVarint(data, &pos);
    if (!len.ok()) return len.status();
    if (*len > data.size() - pos) {
      return Status::Corruption("snapshot posting blob truncated");
    }
    auto list = index::DecodePostings(data.substr(pos, *len));
    if (!list.ok()) return list.status();
    pos += *len;
    for (const index::Posting& p : *list) {
      if (p.doc >= corpus.NumDocs()) {
        return Status::Corruption(
            "snapshot posting references unknown document " +
            std::to_string(p.doc));
      }
    }
    postings[t] = std::move(*list);
  }
  if (pos != data.size()) {
    return Status::Corruption("trailing bytes in snapshot INDX section");
  }
  return index::InvertedIndex::FromPostings(corpus, std::move(postings));
}

Result<Snapshot> SnapshotReader::Load() const {
  Stopwatch watch;
  auto corpus = LoadCorpus();
  if (!corpus.ok()) return corpus.status();
  Snapshot snapshot;
  snapshot.corpus = std::make_unique<doc::Corpus>(std::move(*corpus));
  auto loaded_index = LoadIndex(*snapshot.corpus);
  if (!loaded_index.ok()) return loaded_index.status();
  snapshot.index =
      std::make_unique<index::InvertedIndex>(std::move(*loaded_index));
  snapshot.stats = snapshot.corpus->Stats();
  if (HasSection(kSectionPerm)) {
    auto perm = ReadPermutation();
    if (!perm.ok()) return perm.status();
    snapshot.external_ids = std::move(*perm);
    snapshot.index->SetExternalIds(snapshot.external_ids);
  }
  QEC_COUNTER_INC("storage/snapshot_reads");
  QEC_COUNTER_ADD("storage/snapshot_read_bytes", data_.size());
  QEC_HISTOGRAM_RECORD("storage/snapshot_load_ns", ElapsedNs(watch));
  return snapshot;
}

Result<Snapshot> DeserializeSnapshot(std::string_view data) {
  auto reader = SnapshotReader::Open(data);
  auto result = reader.ok() ? reader->Load() : Result<Snapshot>(reader.status());
  if (!result.ok() && result.status().code() == StatusCode::kCorruption) {
    QEC_COUNTER_INC("storage/snapshot_corruptions");
  }
  return result;
}

Result<std::string> ReadSnapshotBlob(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) return Status::NotFound("cannot open '" + path + "'");
  std::string blob;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    blob.append(buf, n);
  }
  return blob;
}

Result<Snapshot> ReadSnapshot(const std::string& path) {
  auto blob = ReadSnapshotBlob(path);
  if (!blob.ok()) return blob.status();
  return DeserializeSnapshot(*blob);
}

}  // namespace qec::storage
