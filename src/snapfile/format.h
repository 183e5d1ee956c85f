#ifndef QIKEY_SNAPFILE_FORMAT_H_
#define QIKEY_SNAPFILE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace qikey {
namespace snapfile {

/// The QSNP1 on-disk snapshot format (see docs/architecture.md for the
/// byte-layout reference).
///
/// A file is:
///
///   [64-byte header][section table][pad][section 0][pad][section 1]...
///
/// Every section starts on a 64-byte boundary. Because mmap returns
/// page-aligned (>= 64) bases, a 64-byte-aligned file offset yields a
/// 64-byte-aligned pointer — which is exactly the alignment contract of
/// `AlignedWordBuffer`, so the packed-evidence words are served from the
/// mapping with zero copies.
///
/// Header (64 bytes, little-endian):
///   off  0  char[8]  magic "QSNP1\0\0\0"
///   off  8  u32      format version (1)
///   off 12  u32      section count
///   off 16  f64      eps
///   off 24  u64      source rows
///   off 32  u64      declared filter sample size (pairs or tuples)
///   off 40  u64      total file bytes
///   off 48  u8       backend (0 tuple; 1 legacy mx-pair, read as
///                    bitset; 2 bitset)
///   off 49  u8       duplicate detection (0 sort, 1 hash)
///   off 50  u16      flags
///   off 52  u32      store epoch at save time (0 = unrecorded; files
///                    written before epochs were stored carry 0 here,
///                    the field's former reserved value, so they stay
///                    readable — as do epochs above 2^32-1, which are
///                    saved as 0 rather than truncated)
///   off 56  u64      FNV-1a over header[0..56) ++ section table
///
/// Section table entry (32 bytes each, immediately after the header):
///   off  0  u32      section id
///   off  4  u32      reserved (0)
///   off  8  u64      file offset (64-byte aligned)
///   off 16  u64      payload bytes (exact, excluding padding)
///   off 24  u64      FNV-1a over the payload bytes

inline constexpr char kMagic[8] = {'Q', 'S', 'N', 'P', '1', 0, 0, 0};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr size_t kHeaderBytes = 64;
inline constexpr size_t kSectionEntryBytes = 32;
inline constexpr size_t kSectionAlign = 64;
/// Far above what v1 writes (at most 6); bounds hostile table sizes.
inline constexpr uint32_t kMaxSections = 64;

/// Snapshot sample rows and pair-table rows must fit `RowIndex`.
inline constexpr uint64_t kMaxRows = 0xFFFFFFFFull;
/// Attribute count ceiling; bounds per-attribute metadata allocations.
inline constexpr uint32_t kMaxAttributes = 1u << 20;

enum class SectionId : uint32_t {
  /// ByteWriter stream: schema, dictionaries, counts, backend extras.
  kMeta = 1,
  /// Snapshot sample codes, column-major, each column 64-byte aligned.
  kSampleCodes = 2,
  /// Minimal keys: `num_keys x ceil(m/64)` packed u64 words.
  kKeys = 3,
  /// `PackedEvidence` block words exactly as `AlignedWordBuffer` holds
  /// them (bitset backend; mapped in place).
  kEvidenceWords = 4,
  /// `PackedEvidence` representative endpoints, `2 x pairs` u32
  /// (bitset backend; mapped in place).
  kEvidenceReps = 5,
  /// Pair-table codes, column-major as `kSampleCodes` (legacy mx-pair
  /// images; no longer written, loaded as a bitset filter).
  kPairCodes = 6,
  /// QIKD dataset blob: the tuple filter's own sample when it does not
  /// share the snapshot sample (tuple backend without bit 0 of flags).
  kFilterSampleBlob = 7,
};

/// Flags (header off 50). Bit 0: the tuple filter evaluates over the
/// snapshot sample itself (no `kFilterSampleBlob` section).
inline constexpr uint16_t kFlagFilterSharesSample = 1u << 0;

/// Section name for inspection output ("meta", "sample_codes", ...).
std::string SectionName(uint32_t id);

struct SnapshotHeader {
  uint32_t version = kFormatVersion;
  uint32_t section_count = 0;
  double eps = 0.0;
  uint64_t source_rows = 0;
  uint64_t declared_sample_size = 0;
  uint64_t file_bytes = 0;
  uint8_t backend = 0;
  uint8_t detection = 0;
  uint16_t flags = 0;
  /// Store epoch when the snapshot was saved; 0 = unrecorded.
  uint32_t epoch = 0;
  uint64_t checksum = 0;
};

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

/// Parsed and fully validated header + section table.
struct SnapshotLayout {
  SnapshotHeader header;
  std::vector<SectionEntry> sections;

  /// The entry for `id`, or null when the file has no such section.
  const SectionEntry* Find(SectionId id) const;
};

/// `n` rounded up to the next multiple of `kSectionAlign`.
constexpr uint64_t AlignUp(uint64_t n) {
  return (n + (kSectionAlign - 1)) & ~uint64_t{kSectionAlign - 1};
}

/// Bytes one column of `rows` codes occupies in a column-major codes
/// section (padded so the next column starts 64-byte aligned).
constexpr uint64_t ColumnStrideBytes(uint64_t rows) {
  return AlignUp(rows * sizeof(uint32_t));
}

/// \brief Validates and parses the header and section table of a
/// snapshot image: magic, version, declared size vs `size`, section
/// count bound, header checksum, per-section 64-byte alignment,
/// overflow-safe bounds, pairwise disjointness, unique known ids, and
/// (unless `verify_checksums` is false) every section's payload
/// checksum. After this returns OK, every `SectionEntry` range is safe
/// to read.
///
/// `data` must be 64-byte aligned (checked) — the alignment everything
/// downstream borrows pointers under.
Result<SnapshotLayout> ParseLayout(const uint8_t* data, size_t size,
                                   bool verify_checksums = true);

}  // namespace snapfile
}  // namespace qikey

#endif  // QIKEY_SNAPFILE_FORMAT_H_
