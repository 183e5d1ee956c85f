#ifndef QIKEY_SNAPFILE_SNAPFILE_H_
#define QIKEY_SNAPFILE_SNAPFILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/snapshot.h"
#include "snapfile/format.h"
#include "util/status.h"

namespace qikey {
namespace snapfile {

/// \brief QSNP1 snapshot artifacts: a `ServeSnapshot` frozen into one
/// mmap-able file (see format.h for the layout and docs/architecture.md
/// for the reference).
///
/// The writer lays the hot structures out exactly as their in-memory
/// owners hold them — packed-evidence words as `AlignedWordBuffer`
/// does, code columns 64-byte aligned — so the reader's snapshot is a
/// set of borrowed views into the mapping: serving starts as soon as
/// the file is validated, and the data pages are faulted in from page
/// cache on first touch, shared across processes.

/// The whole file image of `snapshot`, in memory. The snapshot's epoch
/// is recorded in the header (u32; 0 when it never was published), and
/// a loaded snapshot carries it back so `SnapshotStore::Publish`
/// resumes the epoch sequence instead of restarting at 1.
/// Unimplemented when the snapshot's filter is not one of the two
/// library backends (tuple sample, bitset).
Result<std::string> SerializeSnapshot(const ServeSnapshot& snapshot);

/// Serializes `snapshot` and atomically replaces `path` with it (see
/// `WriteFileBytes`): a server still mapping the old file keeps serving
/// it until it re-reads the path.
Status WriteSnapshotFile(const ServeSnapshot& snapshot,
                         const std::string& path);

/// \brief Reconstructs a servable snapshot from a snapshot image,
/// borrowing storage from it: sample (and legacy pair-table) codes and the
/// packed-evidence words/representatives are views into `data`, kept
/// alive by storing `owner` in every component's deleter.
///
/// `data` must be 64-byte aligned and stay immutable while any piece of
/// the returned snapshot (or a copy) is alive. The image is fully
/// validated — bounds, alignment, checksums, code ranges — before any
/// borrowed pointer is created; a malformed image yields a `Status`,
/// never a crash.
Result<ServeSnapshot> SnapshotFromBytes(const uint8_t* data, size_t size,
                                        std::shared_ptr<const void> owner);

/// As `SnapshotFromBytes` for unaligned/ephemeral bytes: copies them
/// into an aligned buffer owned by the returned snapshot. For tests and
/// fuzzing; file serving goes through `ReadSnapshotFile`.
Result<ServeSnapshot> SnapshotFromOwnedBytes(std::string_view bytes);

/// Maps `path` and reconstructs the snapshot it holds; the mapping
/// lives exactly as long as the snapshot's components do.
Result<ServeSnapshot> ReadSnapshotFile(const std::string& path);

/// Header + section table of a snapshot file, structurally validated
/// (`ParseLayout`, including checksums) but without reconstructing the
/// snapshot.
struct SnapshotFileInfo {
  SnapshotHeader header;
  std::vector<SectionEntry> sections;
  /// Bitset images only (0 otherwise), from the meta section: the
  /// evidence pairs stored and the pairs the sample drew. A served
  /// image stores the minimal masks, so `evidence_pairs /
  /// source_pairs` is the share of sampled pairs it answers from.
  uint64_t evidence_pairs = 0;
  uint64_t source_pairs = 0;
};

Result<SnapshotFileInfo> InspectSnapshotFile(const std::string& path);

/// `qikey snapshot inspect` output: the info as one sorted-key JSON
/// object (stable field order; checksums rendered as hex strings).
std::string RenderSnapshotInfoJson(const SnapshotFileInfo& info);

}  // namespace snapfile
}  // namespace qikey

#endif  // QIKEY_SNAPFILE_SNAPFILE_H_
