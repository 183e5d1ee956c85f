#include "shard/shard_artifact.h"

#include <cstring>

#include "data/serialize.h"
#include "data/wire_codec.h"

namespace qikey {

namespace {

constexpr char kMagic[4] = {'Q', 'I', 'K', 'S'};
// Version 2 added the bitset backend (byte value 2). The layout is
// unchanged, so v1 payloads — which can only carry backends 0 and 1 —
// still deserialize. Byte 1 is the retired mx-pair backend: its pair
// table is exactly what the bitset backend merges, so it reads as
// bitset.
constexpr uint32_t kVersion = 2;

}  // namespace

uint64_t ShardFilterArtifact::MemoryBytes() const {
  uint64_t bytes =
      tuple_sample.num_rows() * tuple_sample.num_attributes() *
          sizeof(ValueCode) +
      provenance.size() * sizeof(RowIndex);
  bytes += pair_table.num_rows() * pair_table.num_attributes() *
           sizeof(ValueCode);
  return bytes;
}

Status ShardFilterArtifact::CheckPairTableSchema() const {
  if (pair_table.num_attributes() > 0 &&
      pair_table.schema().names() != tuple_sample.schema().names()) {
    return Status::InvalidArgument(
        "shard pair table schema differs from its tuple sample");
  }
  return Status::OK();
}

std::string SerializeShardArtifact(const ShardFilterArtifact& artifact) {
  ByteWriter w;
  w.Raw(kMagic, sizeof(kMagic));
  w.U32(kVersion);
  w.U32(artifact.shard_index);
  w.U64(artifact.first_row);
  w.U64(artifact.rows_seen);
  w.U8(artifact.backend == FilterBackend::kBitset ? 2 : 0);
  w.U64(artifact.provenance.size());
  w.Raw(artifact.provenance.data(),
        artifact.provenance.size() * sizeof(RowIndex));
  w.Blob(SerializeDataset(artifact.tuple_sample));
  w.U8(artifact.pair_table.num_attributes() > 0 ? 1 : 0);
  if (artifact.pair_table.num_attributes() > 0) {
    w.Blob(SerializeDataset(artifact.pair_table));
  }
  return std::move(w).Take();
}

Result<ShardFilterArtifact> DeserializeShardArtifact(std::string_view bytes) {
  ByteReader r(bytes);
  char magic[4];
  uint32_t version = 0;
  if (!r.Raw(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("not a qikey shard artifact");
  }
  if (!r.U32(&version) || version < 1 || version > kVersion) {
    return Status::InvalidArgument("unsupported shard artifact version");
  }
  ShardFilterArtifact artifact;
  uint8_t backend = 0;
  uint64_t prov = 0;
  if (!r.U32(&artifact.shard_index) || !r.U64(&artifact.first_row) ||
      !r.U64(&artifact.rows_seen) || !r.U8(&backend) || !r.U64(&prov)) {
    return Status::InvalidArgument("truncated shard artifact header");
  }
  // v1 payloads predate the bitset backend; reject byte values their
  // writers could never have produced instead of guessing.
  if (backend > (version >= 2 ? 2 : 1)) {
    return Status::InvalidArgument("unknown shard artifact backend");
  }
  artifact.backend =
      backend == 0 ? FilterBackend::kTupleSample : FilterBackend::kBitset;
  if (prov > r.remaining() / sizeof(RowIndex)) {
    return Status::InvalidArgument("truncated shard provenance");
  }
  artifact.provenance.resize(static_cast<size_t>(prov));
  if (!r.Raw(artifact.provenance.data(), prov * sizeof(RowIndex))) {
    return Status::InvalidArgument("truncated shard provenance");
  }
  std::string_view tuple_blob;
  if (!r.Blob(&tuple_blob)) {
    return Status::InvalidArgument("truncated shard tuple sample");
  }
  Result<Dataset> tuple = DeserializeDataset(tuple_blob);
  if (!tuple.ok()) return tuple.status();
  artifact.tuple_sample = std::move(tuple).ValueOrDie();
  uint8_t has_pairs = 0;
  if (!r.U8(&has_pairs)) {
    return Status::InvalidArgument("truncated shard artifact");
  }
  if (has_pairs) {
    std::string_view pair_blob;
    if (!r.Blob(&pair_blob)) {
      return Status::InvalidArgument("truncated shard pair table");
    }
    Result<Dataset> pairs = DeserializeDataset(pair_blob);
    if (!pairs.ok()) return pairs.status();
    if (pairs->num_rows() % 2 != 0) {
      return Status::InvalidArgument("shard pair table has odd row count");
    }
    artifact.pair_table = std::move(pairs).ValueOrDie();
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after shard artifact");
  }
  if (!artifact.provenance.empty() &&
      artifact.provenance.size() != artifact.tuple_sample.num_rows()) {
    return Status::InvalidArgument(
        "shard provenance does not match the tuple sample");
  }
  if (artifact.rows_seen < artifact.tuple_sample.num_rows()) {
    return Status::InvalidArgument("shard claims fewer rows than it retains");
  }
  QIKEY_RETURN_NOT_OK(artifact.CheckPairTableSchema());
  return artifact;
}

Status WriteShardArtifactFile(const ShardFilterArtifact& artifact,
                              const std::string& path) {
  return WriteFileBytes(SerializeShardArtifact(artifact), path);
}

Result<ShardFilterArtifact> ReadShardArtifactFile(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return DeserializeShardArtifact(*bytes);
}

}  // namespace qikey
