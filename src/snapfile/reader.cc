#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bitset_filter.h"
#include "core/sample_bounds.h"
#include "core/tuple_sample_filter.h"
#include "data/serialize.h"
#include "data/wire_codec.h"
#include "snapfile/snapfile.h"
#include "util/jsonw.h"
#include "util/mapped_file.h"

namespace qikey {
namespace snapfile {

namespace {

/// Per-column metadata parsed from the meta section.
struct ColumnMeta {
  uint32_t cardinality = 0;
  std::shared_ptr<Dictionary> dict;
};

Status ReadColumnMeta(ByteReader* r, ColumnMeta* out) {
  uint8_t has_dict = 0;
  if (!r->U32(&out->cardinality) || !r->U8(&has_dict)) {
    return Status::InvalidArgument("snapshot column metadata truncated");
  }
  if (has_dict > 1) {
    return Status::InvalidArgument("snapshot column dictionary flag corrupt");
  }
  if (has_dict == 0) return Status::OK();
  uint32_t entries = 0;
  if (!r->U32(&entries)) {
    return Status::InvalidArgument("snapshot column metadata truncated");
  }
  // Each entry costs at least its 4-byte length prefix, so a count the
  // remaining bytes cannot possibly hold is rejected before anything is
  // allocated from it.
  if (entries > r->remaining() / sizeof(uint32_t)) {
    return Status::InvalidArgument(
        "snapshot dictionary entry count exceeds its metadata");
  }
  if (out->cardinality > entries) {
    return Status::InvalidArgument(
        "snapshot column cardinality exceeds its dictionary");
  }
  auto dict = std::make_shared<Dictionary>();
  std::string value;
  for (uint32_t i = 0; i < entries; ++i) {
    if (!r->Str(&value)) {
      return Status::InvalidArgument("snapshot dictionary truncated");
    }
    if (dict->GetOrAdd(value) != i) {
      return Status::InvalidArgument(
          "snapshot dictionary holds a duplicate value");
    }
  }
  out->dict = std::move(dict);
  return Status::OK();
}

/// Everything the meta section declares, in the writer's order.
struct SnapshotMeta {
  uint32_t m = 0;
  uint64_t rows = 0;
  std::vector<std::string> names;
  std::vector<ColumnMeta> sample_metas;
  uint64_t num_keys = 0;
  std::vector<RowIndex> provenance;
  uint64_t pair_rows = 0;              // backend 1 (legacy mx pair table)
  std::vector<ColumnMeta> pair_metas;  // backend 1
  uint64_t ev_pairs = 0;               // backend 2: evidence pairs stored
  uint64_t ev_source_pairs = 0;        // backend 2: pairs the sample drew
};

/// Parses the meta section of an image whose layout parsed, for the
/// header's `backend`; every count is bounded before it sizes anything.
Status ReadMeta(const uint8_t* data, const SectionEntry& section,
                uint8_t backend, SnapshotMeta* out) {
  ByteReader meta(std::string_view(
      reinterpret_cast<const char*>(data + section.offset),
      static_cast<size_t>(section.bytes)));
  if (!meta.U32(&out->m) || !meta.U64(&out->rows)) {
    return Status::InvalidArgument("snapshot metadata truncated");
  }
  const uint32_t m = out->m;
  if (m == 0 || m > kMaxAttributes) {
    return Status::InvalidArgument(
        "snapshot attribute count out of range");
  }
  if (out->rows > kMaxRows) {
    return Status::InvalidArgument("snapshot sample row count out of range");
  }
  out->names.resize(m);
  out->sample_metas.resize(m);
  for (uint32_t j = 0; j < m; ++j) {
    if (!meta.Str(&out->names[j])) {
      return Status::InvalidArgument("snapshot metadata truncated");
    }
    QIKEY_RETURN_NOT_OK(ReadColumnMeta(&meta, &out->sample_metas[j]));
  }
  uint32_t prov_count = 0;
  if (!meta.U64(&out->num_keys) || !meta.U32(&prov_count)) {
    return Status::InvalidArgument("snapshot metadata truncated");
  }
  if (backend != 0 && prov_count != 0) {
    return Status::InvalidArgument(
        "snapshot carries provenance for a pair backend");
  }
  if (prov_count > meta.remaining() / sizeof(RowIndex)) {
    return Status::InvalidArgument("snapshot provenance truncated");
  }
  out->provenance.resize(prov_count);
  if (prov_count > 0 &&
      !meta.Raw(out->provenance.data(), prov_count * sizeof(RowIndex))) {
    return Status::InvalidArgument("snapshot provenance truncated");
  }
  if (backend == 1) {
    if (!meta.U64(&out->pair_rows)) {
      return Status::InvalidArgument("snapshot metadata truncated");
    }
    out->pair_metas.resize(m);
    for (uint32_t j = 0; j < m; ++j) {
      QIKEY_RETURN_NOT_OK(ReadColumnMeta(&meta, &out->pair_metas[j]));
    }
  } else if (backend == 2) {
    if (!meta.U64(&out->ev_pairs) || !meta.U64(&out->ev_source_pairs)) {
      return Status::InvalidArgument("snapshot metadata truncated");
    }
  }
  if (!meta.AtEnd()) {
    return Status::InvalidArgument(
        "trailing bytes after snapshot metadata");
  }
  return Status::OK();
}

/// Builds a dataset over a column-major codes section without copying a
/// single code: every column is a `Column::Borrowed` view into the
/// image. All codes are range-checked against their column's declared
/// cardinality first — after this, every downstream consumer
/// (projection hashing, dictionary rendering, evidence packing) is safe.
Result<Dataset> BorrowCodesDataset(Schema schema,
                                   const std::vector<ColumnMeta>& metas,
                                   const uint8_t* image,
                                   const SectionEntry& section,
                                   uint64_t rows, const char* what) {
  const size_t m = metas.size();
  const uint64_t stride = ColumnStrideBytes(rows);
  if (section.bytes != m * stride) {
    return Status::InvalidArgument(std::string("snapshot ") + what +
                                   " section size does not match its "
                                   "declared shape");
  }
  std::vector<Column> columns;
  columns.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    const auto* codes = reinterpret_cast<const ValueCode*>(
        image + section.offset + j * stride);
    const uint32_t cardinality = metas[j].cardinality;
    if (rows > 0 && cardinality == 0) {
      return Status::InvalidArgument(std::string("snapshot ") + what +
                                     " column has rows but zero "
                                     "cardinality");
    }
    for (uint64_t i = 0; i < rows; ++i) {
      if (codes[i] >= cardinality) {
        return Status::InvalidArgument(std::string("snapshot ") + what +
                                       " holds a code outside its "
                                       "column's cardinality");
      }
    }
    columns.push_back(Column::Borrowed(codes, static_cast<size_t>(rows),
                                       cardinality, metas[j].dict));
  }
  return Dataset::Make(std::move(schema), std::move(columns));
}

}  // namespace

Result<ServeSnapshot> SnapshotFromBytes(const uint8_t* data, size_t size,
                                        std::shared_ptr<const void> owner) {
  Result<SnapshotLayout> layout = ParseLayout(data, size);
  if (!layout.ok()) return layout.status();
  const SnapshotHeader& h = layout->header;
  if (h.backend > 2) {
    return Status::InvalidArgument("unknown snapshot filter backend");
  }
  if (h.detection > 1) {
    return Status::InvalidArgument("unknown snapshot duplicate detection");
  }
  if ((h.flags & ~kFlagFilterSharesSample) != 0) {
    return Status::InvalidArgument("unknown snapshot flags");
  }
  if (h.flags != 0 && h.backend != 0) {
    return Status::InvalidArgument(
        "sample-sharing flag is only valid for the tuple backend");
  }
  QIKEY_RETURN_NOT_OK(ValidateEps(h.eps));

  const SectionEntry* meta_sec = layout->Find(SectionId::kMeta);
  const SectionEntry* codes_sec = layout->Find(SectionId::kSampleCodes);
  const SectionEntry* keys_sec = layout->Find(SectionId::kKeys);
  if (meta_sec == nullptr || codes_sec == nullptr || keys_sec == nullptr) {
    return Status::InvalidArgument(
        "snapshot is missing a required section");
  }

  SnapshotMeta meta;
  QIKEY_RETURN_NOT_OK(ReadMeta(data, *meta_sec, h.backend, &meta));
  const uint32_t m = meta.m;
  const uint64_t rows = meta.rows;
  const uint32_t prov_count = static_cast<uint32_t>(meta.provenance.size());

  // Exact section census: everything the backend needs, nothing else.
  size_t expected = 3;
  if (h.backend == 1) expected += 1;  // pair codes
  if (h.backend == 2) expected += 2;  // evidence words + reps
  const bool shares_sample = (h.flags & kFlagFilterSharesSample) != 0;
  if (h.backend == 0 && !shares_sample) expected += 1;  // filter blob
  if (layout->sections.size() != expected) {
    return Status::InvalidArgument(
        "snapshot section set does not match its backend");
  }

  Result<Dataset> sample_ds =
      BorrowCodesDataset(Schema(meta.names), meta.sample_metas, data,
                         *codes_sec, rows, "sample");
  if (!sample_ds.ok()) return sample_ds.status();
  // Every component that views the image carries `owner` in its
  // deleter, so the mapping lives exactly as long as the last view.
  std::shared_ptr<Dataset> sample(
      new Dataset(std::move(*sample_ds)),
      [owner](Dataset* p) { delete p; });

  const uint64_t key_words = (uint64_t{m} + 63) / 64;
  const uint64_t key_bytes = key_words * sizeof(uint64_t);
  if (keys_sec->bytes % key_bytes != 0 ||
      keys_sec->bytes / key_bytes != meta.num_keys) {
    return Status::InvalidArgument(
        "snapshot key section size does not match its key count");
  }
  std::vector<AttributeSet> keys;
  keys.reserve(static_cast<size_t>(meta.num_keys));
  const auto* key_data =
      reinterpret_cast<const uint64_t*>(data + keys_sec->offset);
  for (uint64_t k = 0; k < meta.num_keys; ++k) {
    AttributeSet key(m);
    for (uint64_t w = 0; w < key_words; ++w) {
      uint64_t bits = key_data[k * key_words + w];
      while (bits != 0) {
        const uint64_t j =
            w * 64 + static_cast<uint64_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (j >= m) {
          return Status::InvalidArgument(
              "snapshot key has a bit beyond the sample arity");
        }
        key.Add(static_cast<AttributeIndex>(j));
      }
    }
    keys.push_back(std::move(key));
  }

  std::shared_ptr<const SeparationFilter> filter;
  switch (h.backend) {
    case 0: {
      const DuplicateDetection detection = h.detection == 1
                                               ? DuplicateDetection::kHash
                                               : DuplicateDetection::kSort;
      if (shares_sample) {
        if (prov_count != 0 && prov_count != rows) {
          return Status::InvalidArgument(
              "snapshot provenance does not match its sample");
        }
        filter = std::make_shared<const TupleSampleFilter>(
            TupleSampleFilter::FromSample(sample, std::move(meta.provenance),
                                          detection));
        break;
      }
      const SectionEntry* blob_sec =
          layout->Find(SectionId::kFilterSampleBlob);
      if (blob_sec == nullptr) {
        return Status::InvalidArgument(
            "snapshot is missing its filter sample");
      }
      Result<Dataset> filter_sample = DeserializeDataset(std::string_view(
          reinterpret_cast<const char*>(data + blob_sec->offset),
          static_cast<size_t>(blob_sec->bytes)));
      if (!filter_sample.ok()) return filter_sample.status();
      if (filter_sample->num_attributes() != m) {
        return Status::InvalidArgument(
            "snapshot filter sample arity does not match the snapshot");
      }
      if (prov_count != 0 && prov_count != filter_sample->num_rows()) {
        return Status::InvalidArgument(
            "snapshot provenance does not match its filter sample");
      }
      filter = std::make_shared<const TupleSampleFilter>(
          TupleSampleFilter::FromSample(std::move(*filter_sample),
                                        std::move(meta.provenance), detection));
      break;
    }
    case 1: {
      const SectionEntry* pair_sec = layout->Find(SectionId::kPairCodes);
      if (pair_sec == nullptr) {
        return Status::InvalidArgument("snapshot is missing its pair table");
      }
      if (meta.pair_rows % 2 != 0 || meta.pair_rows > kMaxRows) {
        return Status::InvalidArgument(
            "snapshot pair table row count out of range");
      }
      if (meta.pair_rows / 2 != h.declared_sample_size) {
        return Status::InvalidArgument(
            "snapshot pair table does not match its declared sample size");
      }
      Result<Dataset> pair_ds =
          BorrowCodesDataset(Schema(meta.names), meta.pair_metas, data,
                             *pair_sec, meta.pair_rows, "pair table");
      if (!pair_ds.ok()) return pair_ds.status();
      // Legacy mx-pair image: the raw pair table packs into the same
      // evidence (and answers) a bitset save of those pairs would hold.
      Result<BitsetSeparationFilter> bitset =
          BitsetSeparationFilter::FromMaterializedPairs(*pair_ds);
      if (!bitset.ok()) return bitset.status();
      filter = std::shared_ptr<const SeparationFilter>(
          new BitsetSeparationFilter(std::move(*bitset)),
          [owner](const SeparationFilter* p) { delete p; });
      break;
    }
    case 2: {
      const SectionEntry* words_sec =
          layout->Find(SectionId::kEvidenceWords);
      const SectionEntry* reps_sec = layout->Find(SectionId::kEvidenceReps);
      if (words_sec == nullptr || reps_sec == nullptr) {
        return Status::InvalidArgument(
            "snapshot is missing its packed evidence");
      }
      if (meta.ev_pairs > kMaxRows) {
        return Status::InvalidArgument(
            "snapshot evidence pair count out of range");
      }
      if (reps_sec->bytes != meta.ev_pairs * 2 * sizeof(uint32_t)) {
        return Status::InvalidArgument(
            "snapshot evidence reps size does not match its pair count");
      }
      if (words_sec->bytes % sizeof(uint64_t) != 0) {
        return Status::InvalidArgument(
            "snapshot evidence words section is not word-sized");
      }
      Result<PackedEvidence> evidence = PackedEvidence::FromBorrowed(
          m, meta.ev_source_pairs, static_cast<size_t>(meta.ev_pairs),
          reinterpret_cast<const uint64_t*>(data + words_sec->offset),
          static_cast<size_t>(words_sec->bytes / sizeof(uint64_t)),
          reinterpret_cast<const uint32_t*>(data + reps_sec->offset));
      if (!evidence.ok()) return evidence.status();
      Result<BitsetSeparationFilter> bitset =
          BitsetSeparationFilter::FromPackedEvidence(
              std::move(*evidence), h.declared_sample_size);
      if (!bitset.ok()) return bitset.status();
      filter = std::shared_ptr<const SeparationFilter>(
          new BitsetSeparationFilter(std::move(*bitset)),
          [owner](const SeparationFilter* p) { delete p; });
      break;
    }
  }

  ServeSnapshot snapshot;
  // The recorded epoch rides along so publishing the restored snapshot
  // resumes the store's epoch sequence instead of restarting it.
  snapshot.epoch = h.epoch;
  snapshot.eps = h.eps;
  snapshot.source_rows = h.source_rows;
  snapshot.sample = sample;
  snapshot.filter = std::move(filter);
  snapshot.keys = std::make_shared<const std::vector<AttributeSet>>(
      std::move(keys));
  return snapshot;
}

Result<ServeSnapshot> SnapshotFromOwnedBytes(std::string_view bytes) {
  auto buffer =
      std::make_shared<AlignedWordBuffer>((bytes.size() + 7) / 8);
  if (!bytes.empty()) {
    std::memcpy(buffer->data(), bytes.data(), bytes.size());
  }
  const auto* base = reinterpret_cast<const uint8_t*>(
      static_cast<const AlignedWordBuffer&>(*buffer).data());
  return SnapshotFromBytes(base, bytes.size(), buffer);
}

Result<ServeSnapshot> ReadSnapshotFile(const std::string& path) {
  Result<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  auto owner = std::make_shared<MappedFile>(std::move(*mapped));
  Result<ServeSnapshot> snapshot =
      SnapshotFromBytes(owner->data(), owner->size(), owner);
  if (!snapshot.ok()) {
    return Status::InvalidArgument("'" + path +
                                   "': " + snapshot.status().message());
  }
  return snapshot;
}

Result<SnapshotFileInfo> InspectSnapshotFile(const std::string& path) {
  Result<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  Result<SnapshotLayout> layout =
      ParseLayout(mapped->data(), mapped->size());
  if (!layout.ok()) {
    return Status::InvalidArgument("'" + path +
                                   "': " + layout.status().message());
  }
  SnapshotFileInfo info;
  info.header = layout->header;
  if (info.header.backend == 2) {
    const SectionEntry* meta_sec = layout->Find(SectionId::kMeta);
    if (meta_sec == nullptr) {
      return Status::InvalidArgument("'" + path +
                                     "': snapshot is missing its meta");
    }
    SnapshotMeta meta;
    Status status = ReadMeta(mapped->data(), *meta_sec, 2, &meta);
    if (!status.ok()) {
      return Status::InvalidArgument("'" + path + "': " + status.message());
    }
    info.evidence_pairs = meta.ev_pairs;
    info.source_pairs = meta.ev_source_pairs;
  }
  info.sections = std::move(layout->sections);
  return info;
}

namespace {

void AppendHex64(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                static_cast<unsigned long long>(v));
  *out += buf;
}

void AppendDouble(double v, std::string* out) {
  if (!std::isfinite(v)) {
    // Keep the output valid JSON for files carrying garbage eps.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    AppendJsonString(buf, out);
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

std::string BackendName(uint8_t backend) {
  switch (backend) {
    case 0:
      return "tuple";
    case 1:
      return "mx";
    case 2:
      return "bitset";
  }
  return "unknown(" + std::to_string(backend) + ")";
}

std::string DetectionName(uint8_t detection) {
  switch (detection) {
    case 0:
      return "sort";
    case 1:
      return "hash";
  }
  return "unknown(" + std::to_string(detection) + ")";
}

}  // namespace

std::string RenderSnapshotInfoJson(const SnapshotFileInfo& info) {
  // Keys sorted alphabetically at every level, matching the repo's
  // other JSON emitters.
  std::string out = "{\"backend\":";
  AppendJsonString(BackendName(info.header.backend), &out);
  out += ",\"declared_sample_size\":";
  out += std::to_string(info.header.declared_sample_size);
  out += ",\"detection\":";
  AppendJsonString(DetectionName(info.header.detection), &out);
  out += ",\"epoch\":";
  out += std::to_string(info.header.epoch);
  out += ",\"eps\":";
  AppendDouble(info.header.eps, &out);
  if (info.header.backend == 2) {
    out += ",\"evidence_pairs\":";
    out += std::to_string(info.evidence_pairs);
  }
  out += ",\"file_bytes\":";
  out += std::to_string(info.header.file_bytes);
  out += ",\"flags\":";
  out += std::to_string(info.header.flags);
  out += ",\"header_checksum\":";
  AppendHex64(info.header.checksum, &out);
  out += ",\"section_count\":";
  out += std::to_string(info.header.section_count);
  out += ",\"sections\":[";
  for (size_t i = 0; i < info.sections.size(); ++i) {
    const SectionEntry& s = info.sections[i];
    if (i > 0) out += ",";
    out += "{\"bytes\":";
    out += std::to_string(s.bytes);
    out += ",\"checksum\":";
    AppendHex64(s.checksum, &out);
    out += ",\"id\":";
    out += std::to_string(s.id);
    out += ",\"name\":";
    AppendJsonString(SectionName(s.id), &out);
    out += ",\"offset\":";
    out += std::to_string(s.offset);
    out += "}";
  }
  out += "]";
  if (info.header.backend == 2) {
    out += ",\"source_pairs\":";
    out += std::to_string(info.source_pairs);
  }
  out += ",\"source_rows\":";
  out += std::to_string(info.header.source_rows);
  out += ",\"version\":";
  out += std::to_string(info.header.version);
  out += "}";
  return out;
}

}  // namespace snapfile
}  // namespace qikey
