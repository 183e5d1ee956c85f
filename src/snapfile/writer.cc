#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/bitset_filter.h"
#include "core/tuple_sample_filter.h"
#include "data/serialize.h"
#include "data/wire_codec.h"
#include "snapfile/snapfile.h"

namespace qikey {
namespace snapfile {

namespace {

/// Cardinality + optional dictionary of one column, as the meta stream
/// carries it (the schema name is written separately where needed).
void AppendColumnMeta(const Column& col, ByteWriter* w) {
  w->U32(col.cardinality());
  const Dictionary* dict = col.dictionary();
  if (dict == nullptr) {
    w->U8(0);
    return;
  }
  w->U8(1);
  w->U32(static_cast<uint32_t>(dict->size()));
  for (ValueCode c = 0; c < dict->size(); ++c) {
    w->Str(dict->Value(c));
  }
}

/// Column-major code block: each column's `rows * 4` bytes of codes,
/// zero-padded so every column starts on a 64-byte boundary within the
/// (itself 64-byte-aligned) section — the layout `Column::Borrowed`
/// views in place.
std::string PackCodesColumnMajor(const Dataset& table) {
  const uint64_t stride = ColumnStrideBytes(table.num_rows());
  std::string out(table.num_attributes() * stride, '\0');
  for (size_t j = 0; j < table.num_attributes(); ++j) {
    std::span<const ValueCode> codes =
        table.column(static_cast<AttributeIndex>(j)).codes();
    if (!codes.empty()) {
      std::memcpy(out.data() + j * stride, codes.data(),
                  codes.size() * sizeof(ValueCode));
    }
  }
  return out;
}

struct PendingSection {
  SectionId id;
  std::string payload;
};

std::string BytesToString(const void* p, size_t n) {
  return n == 0 ? std::string()
                : std::string(static_cast<const char*>(p), n);
}

}  // namespace

Result<std::string> SerializeSnapshot(const ServeSnapshot& snapshot) {
  if (snapshot.sample == nullptr || snapshot.filter == nullptr ||
      snapshot.keys == nullptr) {
    return Status::InvalidArgument(
        "snapshot must carry a sample, a filter, and keys");
  }
  const Dataset& sample = *snapshot.sample;
  const size_t m = sample.num_attributes();
  if (m == 0 || m > kMaxAttributes) {
    return Status::InvalidArgument(
        "snapshot sample attribute count out of range");
  }
  if (sample.num_rows() > kMaxRows) {
    return Status::InvalidArgument("snapshot sample has too many rows");
  }

  const auto* tuple =
      dynamic_cast<const TupleSampleFilter*>(snapshot.filter.get());
  const auto* bitset =
      dynamic_cast<const BitsetSeparationFilter*>(snapshot.filter.get());
  if (tuple == nullptr && bitset == nullptr) {
    return Status::Unimplemented(
        "snapshot filter backend cannot be serialized");
  }

  SnapshotHeader header;
  header.eps = snapshot.eps;
  header.source_rows = snapshot.source_rows;
  header.declared_sample_size = snapshot.filter->sample_size();
  // Epochs that overflow the u32 field are saved as "unrecorded"
  // rather than truncated — a restore then starts a fresh sequence
  // instead of silently rewinding.
  header.epoch = snapshot.epoch <= 0xFFFFFFFFull
                     ? static_cast<uint32_t>(snapshot.epoch)
                     : 0;
  // Meta stream: counts, schema, dictionaries, backend extras. Every
  // variable-size structure of the file is declared here and
  // cross-checked against exact section sizes by the reader.
  ByteWriter meta;
  meta.U32(static_cast<uint32_t>(m));
  meta.U64(sample.num_rows());
  for (size_t j = 0; j < m; ++j) {
    meta.Str(sample.schema().name(static_cast<AttributeIndex>(j)));
    AppendColumnMeta(sample.column(static_cast<AttributeIndex>(j)), &meta);
  }
  const std::vector<AttributeSet>& keys = *snapshot.keys;
  meta.U64(keys.size());

  std::vector<PendingSection> sections;

  if (tuple != nullptr) {
    header.backend = 0;
    header.detection =
        tuple->detection() == DuplicateDetection::kHash ? 1 : 0;
    const std::vector<RowIndex>& provenance = tuple->provenance();
    meta.U32(static_cast<uint32_t>(provenance.size()));
    meta.Raw(provenance.data(), provenance.size() * sizeof(RowIndex));
    if (tuple->shared_sample().get() == snapshot.sample.get()) {
      header.flags |= kFlagFilterSharesSample;
    }
  } else {
    meta.U32(0);
  }
  if (bitset != nullptr) {
    header.backend = 2;
    const PackedEvidence& evidence = bitset->evidence();
    if (evidence.num_attributes() != m && evidence.num_pairs() > 0) {
      return Status::InvalidArgument(
          "bitset evidence arity does not match the snapshot sample");
    }
    meta.U64(evidence.num_pairs());
    meta.U64(evidence.source_pairs());
    std::span<const uint64_t> words = evidence.raw_words();
    std::span<const uint32_t> reps = evidence.raw_reps();
    sections.emplace_back(SectionId::kEvidenceWords,
                          BytesToString(words.data(), words.size_bytes()));
    sections.emplace_back(SectionId::kEvidenceReps,
                          BytesToString(reps.data(), reps.size_bytes()));
  }

  // Keys: ceil(m/64) packed words each, the AttributeSet layout.
  const size_t key_words = (m + 63) / 64;
  std::string keys_payload;
  keys_payload.reserve(keys.size() * key_words * sizeof(uint64_t));
  for (const AttributeSet& key : keys) {
    if (key.universe_size() != m) {
      return Status::InvalidArgument(
          "snapshot key universe does not match the sample arity");
    }
    std::span<const uint64_t> words = key.words();
    keys_payload.append(reinterpret_cast<const char*>(words.data()),
                        words.size_bytes());
  }

  if (tuple != nullptr &&
      (header.flags & kFlagFilterSharesSample) == 0) {
    // The tuple filter evaluates over its own sample (monitor freezes
    // and merges can diverge from the snapshot sample); carry it as a
    // nested QIKD blob.
    sections.emplace_back(SectionId::kFilterSampleBlob,
                          SerializeDataset(tuple->sample()));
  }

  sections.insert(sections.begin(),
                  {SectionId::kSampleCodes, PackCodesColumnMajor(sample)});
  sections.insert(sections.begin(), {SectionId::kMeta, std::move(meta).Take()});
  sections.emplace_back(SectionId::kKeys, std::move(keys_payload));

  // Lay the sections out 64-byte aligned and stamp the table.
  header.section_count = static_cast<uint32_t>(sections.size());
  std::vector<SectionEntry> entries(sections.size());
  uint64_t offset = AlignUp(kHeaderBytes +
                            sections.size() * kSectionEntryBytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    entries[i].id = static_cast<uint32_t>(sections[i].id);
    entries[i].offset = offset;
    entries[i].bytes = sections[i].payload.size();
    entries[i].checksum =
        Fnv1a64(sections[i].payload.data(), sections[i].payload.size());
    offset = AlignUp(offset + entries[i].bytes);
  }
  header.file_bytes = offset;

  ByteWriter head;
  head.Raw(kMagic, sizeof(kMagic));
  head.U32(header.version);
  head.U32(header.section_count);
  head.F64(header.eps);
  head.U64(header.source_rows);
  head.U64(header.declared_sample_size);
  head.U64(header.file_bytes);
  head.U8(header.backend);
  head.U8(header.detection);
  head.U16(header.flags);
  head.U32(header.epoch);
  std::string head_bytes = std::move(head).Take();

  ByteWriter table;
  for (const SectionEntry& e : entries) {
    table.U32(e.id);
    table.U32(0);  // reserved
    table.U64(e.offset);
    table.U64(e.bytes);
    table.U64(e.checksum);
  }
  std::string table_bytes = std::move(table).Take();

  uint64_t checksum = Fnv1a64(head_bytes.data(), head_bytes.size());
  checksum = Fnv1a64(table_bytes.data(), table_bytes.size(), checksum);

  std::string out;
  out.reserve(header.file_bytes);
  out += head_bytes;
  out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out += table_bytes;
  for (size_t i = 0; i < sections.size(); ++i) {
    out.resize(entries[i].offset, '\0');
    out += sections[i].payload;
  }
  out.resize(header.file_bytes, '\0');
  return out;
}

Status WriteSnapshotFile(const ServeSnapshot& snapshot,
                         const std::string& path) {
  Result<std::string> image = SerializeSnapshot(snapshot);
  if (!image.ok()) return image.status();
  return WriteFileBytes(*image, path);
}

}  // namespace snapfile
}  // namespace qikey
