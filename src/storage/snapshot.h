#ifndef QEC_STORAGE_SNAPSHOT_H_
#define QEC_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"

namespace qec::storage {

/// Versioned on-disk snapshot of a fully built search substrate: analyzer
/// options, vocabulary, documents (text and structured), corpus statistics,
/// and the inverted index (delta + varbyte posting lists, reusing
/// index/posting_codec.h). A `serve`/`eval` process loads one in a single
/// pass instead of re-parsing XML and rebuilding the index.
///
/// Layout (little-endian; full spec in docs/FORMATS.md):
///
///   header   magic "QECSNAP1" (8) + format version u32
///   sections raw payloads, back to back
///   TOC      count u32 + per section {id[4], offset u64, len u64, crc u32}
///   footer   toc_offset u64 + toc_crc u32 + magic "QECSNAPF" (20 bytes)
///
/// The footer-based TOC lets readers seek straight to one section (e.g.
/// `index-inspect` prints statistics without touching DOCS/INDX). Every
/// section is CRC-32 checked before parsing and every parse is bounds-
/// checked, so any truncated or bit-flipped input fails with
/// Status::Corruption — never UB.
inline constexpr uint32_t kSnapshotFormatVersion = 1;

inline constexpr std::string_view kSnapshotMagic = "QECSNAP1";
inline constexpr std::string_view kSnapshotFooterMagic = "QECSNAPF";

/// Section ids, in the order SerializeSnapshot writes them. PERM is only
/// present in snapshots written by older builds that cluster-reordered doc
/// ids; it is still read and validated, but no build tool writes it any
/// more. Readers that predate it skip unknown sections, so it needed no
/// format-version bump.
inline constexpr std::string_view kSectionMeta = "META";   // analyzer options
inline constexpr std::string_view kSectionVocab = "VOCA";  // term strings
inline constexpr std::string_view kSectionDocs = "DOCS";   // documents
inline constexpr std::string_view kSectionStats = "STAT";  // corpus stats
inline constexpr std::string_view kSectionIndex = "INDX";  // posting lists
inline constexpr std::string_view kSectionPerm = "PERM";   // doc-id permutation

/// One TOC entry.
struct SectionInfo {
  std::string id;       // 4 ASCII bytes
  uint64_t offset = 0;  // absolute offset of the payload in the file
  uint64_t length = 0;  // payload bytes
  uint32_t crc32 = 0;   // CRC-32 of the payload
};

/// A fully loaded snapshot. Corpus and index are heap-held so the struct
/// can move without invalidating the index's corpus pointer.
struct Snapshot {
  std::unique_ptr<doc::Corpus> corpus;
  std::unique_ptr<index::InvertedIndex> index;
  doc::CorpusStats stats;
  /// Doc-id permutation of a snapshot written with a PERM section:
  /// external_ids[i] is the id document i carried before reordering.
  /// Empty = identity (no PERM section). Load() also installs it on
  /// `index`, so ranked searches tie-break on external ids.
  std::vector<DocId> external_ids;
};

/// Serializes `index` and its corpus into a snapshot blob.
std::string SerializeSnapshot(const index::InvertedIndex& index);

/// Like above, additionally persisting a doc-id permutation as a `PERM`
/// section (per-section CRC like the rest). `external_ids` must be empty
/// (no PERM section written) or NumDocs entries. This is the only PERM
/// encoder: no tool writes PERM any more, so it exists as the reference
/// blob that the reader's permutation and corruption tests load and
/// mutate.
std::string SerializeSnapshot(const index::InvertedIndex& index,
                              const std::vector<DocId>& external_ids);

/// Serializes and writes to `path` (Internal on I/O failure).
Status WriteSnapshot(const index::InvertedIndex& index,
                     const std::string& path);

/// Lazy section-level reader. Open() parses only the header, footer, and
/// TOC; sections are CRC-verified and decoded on demand. `data` must
/// outlive the reader (loaded objects copy everything out, so the backing
/// blob may be freed after the Load*/Read* call returns).
class SnapshotReader {
 public:
  static Result<SnapshotReader> Open(std::string_view data);

  uint32_t version() const { return version_; }

  /// TOC entries in file order.
  const std::vector<SectionInfo>& sections() const { return sections_; }

  bool HasSection(std::string_view id) const;

  /// Payload bytes of section `id`; verifies the section CRC on each call
  /// (NotFound for an absent id, Corruption on checksum mismatch).
  Result<std::string_view> Section(std::string_view id) const;

  /// Decodes STAT only — no vocabulary/document/index parsing.
  Result<doc::CorpusStats> ReadStats() const;

  /// Decodes the PERM section: the external doc id of every internal doc
  /// id, validated to be a permutation whose length equals the STAT doc
  /// count (any mismatch, out-of-range id, or duplicate is Corruption).
  /// NotFound when the snapshot has no PERM section (identity mapping).
  Result<std::vector<DocId>> ReadPermutation() const;

  /// Restores the corpus from META + VOCA + DOCS and cross-checks its
  /// recomputed statistics against STAT (mismatch = Corruption).
  Result<doc::Corpus> LoadCorpus() const;

  /// Restores the inverted index from INDX over `corpus` (which must come
  /// from LoadCorpus() on the same snapshot) without rescanning documents.
  Result<index::InvertedIndex> LoadIndex(const doc::Corpus& corpus) const;

  /// Restores everything.
  Result<Snapshot> Load() const;

 private:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  std::string_view data_;
  uint32_t version_ = 0;
  std::vector<SectionInfo> sections_;
};

/// One-shot full load from a blob.
Result<Snapshot> DeserializeSnapshot(std::string_view data);

/// Reads `path` into memory (NotFound on open failure) and loads it.
Result<Snapshot> ReadSnapshot(const std::string& path);

/// Reads `path` into memory for SnapshotReader::Open (NotFound / Internal).
Result<std::string> ReadSnapshotBlob(const std::string& path);

}  // namespace qec::storage

#endif  // QEC_STORAGE_SNAPSHOT_H_
