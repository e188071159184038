#include "index/posting_codec.h"

#include <limits>

namespace qec::index {

void AppendVarint(uint64_t value, std::string& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

Result<uint64_t> ReadVarint(std::string_view data, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (*pos >= data.size()) {
      return Status::Corruption("varint truncated at byte " +
                                std::to_string(*pos));
    }
    uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return Status::Corruption("overlong varint");
}

std::string EncodePostings(const std::vector<Posting>& postings) {
  std::string out;
  AppendVarint(postings.size(), out);
  DocId prev = 0;
  for (size_t i = 0; i < postings.size(); ++i) {
    const Posting& p = postings[i];
    const uint64_t gap =
        i == 0 ? p.doc : static_cast<uint64_t>(p.doc) - prev - 1;
    AppendVarint(gap, out);
    AppendVarint(static_cast<uint64_t>(p.tf), out);
    prev = p.doc;
  }
  return out;
}

Result<std::vector<Posting>> DecodePostings(std::string_view data) {
  size_t pos = 0;
  auto count = ReadVarint(data, &pos);
  if (!count.ok()) return count.status();
  // Every posting encodes to at least 2 bytes (gap varint + tf varint), so
  // any count above half the remaining payload is corrupt. Rejecting here
  // keeps a corrupt header from over-reserving the output vector.
  if (*count > (data.size() - pos) / 2) {
    return Status::Corruption("implausible posting count");
  }
  std::vector<Posting> out;
  out.reserve(*count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto gap = ReadVarint(data, &pos);
    if (!gap.ok()) return gap.status();
    auto tf = ReadVarint(data, &pos);
    if (!tf.ok()) return tf.status();
    // Bounding the gap first keeps prev + gap + 1 from wrapping around to
    // a doc id at or below prev.
    if (*gap > std::numeric_limits<DocId>::max()) {
      return Status::Corruption("doc id overflow");
    }
    const uint64_t doc = i == 0 ? *gap : prev + *gap + 1;
    if (doc > std::numeric_limits<DocId>::max()) {
      return Status::Corruption("doc id overflow");
    }
    if (*tf == 0 || *tf > std::numeric_limits<int>::max()) {
      return Status::Corruption("invalid term frequency");
    }
    out.push_back(Posting{static_cast<DocId>(doc), static_cast<int>(*tf)});
    prev = doc;
  }
  if (pos != data.size()) {
    return Status::Corruption("trailing bytes after postings");
  }
  return out;
}

}  // namespace qec::index
