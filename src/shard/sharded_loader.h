#ifndef QIKEY_SHARD_SHARDED_LOADER_H_
#define QIKEY_SHARD_SHARDED_LOADER_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/status.h"

namespace qikey {

/// One shard's slice of a CSV file: a byte range holding a contiguous
/// run of data records, with its global row range.
struct ShardRange {
  uint64_t byte_begin = 0;  ///< offset of the range's first record
  uint64_t byte_end = 0;    ///< offset one past the range's last record
  uint64_t first_row = 0;   ///< global index of the first data row
  uint64_t num_rows = 0;    ///< data rows (blank records excluded)
};

/// A parallel-ingest plan for one CSV file: attribute names (from the
/// header, or anonymous) and near-equal record ranges whose boundaries
/// respect RFC-4180 quoting — a newline inside a quoted field never
/// splits a shard.
struct CsvShardPlan {
  std::vector<std::string> attribute_names;
  uint64_t total_rows = 0;
  std::vector<ShardRange> ranges;
};

/// \brief Single quote-aware pass over a CSV file's `text` that locates
/// record boundaries and splits the data records into (up to)
/// `num_shards` contiguous ranges, each with at least two rows.
///
/// The caller opens the file once (`FileText`: a mapping of a regular
/// file, the bytes of a pipe) and walks every range over that same text
/// with `ForEachCsvRecordInRange`. The plan's own memory is bounded: boundary candidates are kept as stride-compacted
/// marks (the stride doubles whenever 64Ki marks accumulate), so shard
/// boundaries land within one stride of the ideal even split. The scan
/// does not parse fields — it finds record ends with `NextCsvRecord`
/// (`memchr`, plus quote tracking for records that hold a quote) — and
/// is several times cheaper than a full parse, which is what makes the
/// parse itself worth fanning out over the ranges afterwards.
Result<CsvShardPlan> PlanCsvShards(std::string_view text, size_t num_shards,
                                   const CsvOptions& options = {});

/// Attribute names of a CSV file — the header record, or anonymous
/// names matching the first record's width. Reads one record, not the
/// file. A directory is an IOError ("is a directory: PATH").
Result<std::vector<std::string>> ReadCsvAttributeNames(
    const std::string& path, const CsvOptions& options = {});

/// \brief Streams the data records of `range` (in file order) out of
/// the `text` the plan was made from, invoking `fn` with each record's
/// text: a view into `text`, with its terminator removed (see
/// `CsvRecord::text`). The walker locates records but never splits
/// them; callers split (with a `CsvFieldSplitter`) only what they need.
/// Blank records are skipped; reads stop at `range.byte_end` /
/// `range.num_rows`. A call touches only its range's bytes, so ranges
/// can be consumed from concurrent workers.
Status ForEachCsvRecordInRange(
    std::string_view text, const ShardRange& range,
    const CsvOptions& options,
    const std::function<Status(std::string_view record)>& fn);

/// Attribute names fixed by a file's first non-blank record, split into
/// `fields`: the header, or anonymous names of the record's width.
std::vector<std::string> CsvAttributeNames(
    std::span<const std::string_view> fields, const CsvOptions& options);

/// Opens `path` for `WalkCsvRecords`. A directory is an IOError ("is a
/// directory: PATH"): a stream would open one, then fail to read it.
Status OpenCsvStream(const std::string& path, std::ifstream* in);

/// \brief Walks a stream record by record through a sliding buffer, for
/// the readers that must accept pipes (`StreamCsvShardArtifact`) or need
/// only the first record (`ReadCsvAttributeNames`). `on_record` gets
/// every record, blank ones included, and the buffer's current size in
/// bytes; the record's text is a view into the buffer, valid for the
/// call. Returning false stops the walk early. The buffer starts at
/// 256 KiB; only a record that straddles a refill is moved (to the
/// buffer's front), and one longer than the buffer doubles it.
Status WalkCsvRecords(
    std::istream& in, const CsvOptions& options,
    const std::function<bool(const CsvRecord& record, size_t buffer_bytes)>&
        on_record);

}  // namespace qikey

#endif  // QIKEY_SHARD_SHARDED_LOADER_H_
