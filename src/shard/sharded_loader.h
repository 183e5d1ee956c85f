#ifndef QIKEY_SHARD_SHARDED_LOADER_H_
#define QIKEY_SHARD_SHARDED_LOADER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "data/dictionary.h"
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

/// Options for `ShardedLoader`.
struct ShardedLoaderOptions {
  /// Rows per shard; 0 derives it from the memory budget (or a default
  /// of 64Ki rows when no budget is set). Shards always get >= 2 rows.
  size_t shard_rows = 0;
  /// When > 0, `Load` fails with OutOfRange if the tracked live bytes
  /// (current chunk + dictionaries + whatever the consumer reports)
  /// ever exceed this budget — the out-of-core contract.
  uint64_t memory_budget_bytes = 0;
  CsvOptions csv;
};

/// One ingested chunk: a fixed-size row range of the input, encoded
/// against the loader's SHARED dictionaries (codes of all chunks
/// compare directly).
struct ShardInput {
  Dataset rows;
  uint32_t shard_index = 0;
  uint64_t first_row = 0;
};

/// What one ingest pass did, for reporting and the benches' memory
/// assertions.
struct ShardedIngestStats {
  uint64_t total_rows = 0;
  uint64_t num_shards = 0;
  /// Max over time of: live chunk bytes + dictionary bytes + the
  /// consumer-reported bytes. The loader's peak footprint.
  uint64_t peak_tracked_bytes = 0;
  uint64_t dictionary_bytes = 0;
};

/// \brief Chunked, bounded-memory CSV ingest: single-passes the file,
/// dictionary-encodes incrementally into one shared per-column
/// dictionary, and hands fixed-size row-range chunks to `consumer`
/// without ever holding more than one chunk — the ingest path for
/// tables larger than RAM.
///
/// `consumer_tracked`, when provided, reports the consumer's current
/// live bytes (e.g. the running merged filter) so the budget check
/// covers the whole pipeline, not just the loader.
class ShardedLoader {
 public:
  explicit ShardedLoader(const ShardedLoaderOptions& options)
      : options_(options) {}

  /// `path` may be a pipe; a directory is an IOError ("is a directory").
  Result<ShardedIngestStats> Load(
      const std::string& path,
      const std::function<Status(ShardInput)>& consumer,
      const std::function<uint64_t()>& consumer_tracked = nullptr);

  /// The shared per-column dictionaries (valid after `Load`).
  const std::vector<std::shared_ptr<Dictionary>>& dictionaries() const {
    return dictionaries_;
  }

 private:
  ShardedLoaderOptions options_;
  std::vector<std::shared_ptr<Dictionary>> dictionaries_;
};

}  // namespace qikey

#endif  // QIKEY_SHARD_SHARDED_LOADER_H_
