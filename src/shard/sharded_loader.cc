#include "shard/sharded_loader.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <utility>

#include "data/dataset_builder.h"
#include "data/schema.h"

namespace qikey {

namespace {

constexpr size_t kIoBufferBytes = size_t{1} << 18;  // 256 KiB
constexpr size_t kMaxBoundaryMarks = size_t{1} << 16;
constexpr size_t kDefaultShardRows = size_t{1} << 16;

/// Opens `path` for `WalkCsvRecords`, refusing a directory by name as
/// `FileText` does (a stream opens one, then fails to read).
Status OpenCsvStream(const std::string& path, std::ifstream* in) {
  std::error_code error;
  if (std::filesystem::is_directory(path, error)) {
    return Status::IOError("is a directory: " + path);
  }
  in->open(path, std::ios::binary);
  if (!*in) return Status::IOError("cannot open: " + path);
  return Status::OK();
}

/// Walks a stream record by record through a sliding buffer, for the
/// readers that must accept pipes (`ShardedLoader`) or need only the
/// first record. `on_record` gets each record; its text is a view into
/// the buffer, valid for the call. Returning false stops the walk early.
/// Only a record that straddles a refill is moved (to the buffer's
/// front); one longer than the buffer doubles it.
Status WalkCsvRecords(
    std::ifstream& in, const CsvOptions& options,
    const std::function<bool(const CsvRecord& record)>& on_record) {
  std::string buffer(kIoBufferBytes, '\0');
  size_t head = 0;  // unconsumed bytes are buffer[head, tail)
  size_t tail = 0;
  bool at_end = false;
  CsvRecord record;
  while (true) {
    std::string_view pending(buffer.data() + head, tail - head);
    if (size_t used = NextCsvRecord(pending, at_end, options, &record)) {
      if (!on_record(record)) break;
      head += used;
      continue;
    }
    if (at_end) break;
    std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(head),
              buffer.begin() + static_cast<std::ptrdiff_t>(tail),
              buffer.begin());
    tail -= head;
    head = 0;
    if (tail == buffer.size()) buffer.resize(2 * buffer.size());
    in.read(buffer.data() + tail,
            static_cast<std::streamsize>(buffer.size() - tail));
    std::streamsize got = in.gcount();
    tail += static_cast<size_t>(got);
    at_end = got <= 0;
  }
  if (in.bad()) return Status::IOError("read failed");
  return Status::OK();
}

/// Attribute names fixed by the first non-blank record: the header, or
/// anonymous names of the record's width.
std::vector<std::string> NamesFromFirstRecord(
    std::span<const std::string_view> fields, const CsvOptions& options) {
  return options.has_header
             ? std::vector<std::string>(fields.begin(), fields.end())
             : Schema::Anonymous(fields.size()).names();
}

}  // namespace

Result<CsvShardPlan> PlanCsvShards(std::string_view text, size_t num_shards,
                                   const CsvOptions& options) {
  if (num_shards == 0) {
    return Status::InvalidArgument("need at least one shard");
  }
  CsvShardPlan plan;
  CsvFieldSplitter splitter(options);
  bool names_known = false;
  uint64_t data_rows = 0;
  uint64_t end_offset = 0;  // one past the last data record
  // Stride-compacted record-start marks: (data row index, byte offset).
  std::vector<std::pair<uint64_t, uint64_t>> marks;
  uint64_t stride = 1;

  size_t offset = 0;
  CsvRecord record;
  while (size_t used = NextCsvRecord(text.substr(offset), /*at_end=*/true,
                                     options, &record)) {
    const size_t begin = offset;
    offset += used;
    if (record.blank) continue;
    if (!names_known) {
      plan.attribute_names =
          NamesFromFirstRecord(splitter.Split(record.text), options);
      names_known = true;
      if (options.has_header) continue;
    }
    if (data_rows % stride == 0) {
      marks.emplace_back(data_rows, begin);
      if (marks.size() > kMaxBoundaryMarks) {
        // Keep every other mark; the stride doubles.
        size_t keep = 0;
        for (size_t i = 0; i < marks.size(); i += 2) marks[keep++] = marks[i];
        marks.resize(keep);
        stride *= 2;
      }
    }
    ++data_rows;
    end_offset = offset;
  }
  if (!names_known) return Status::InvalidArgument("CSV has no records");
  plan.total_rows = data_rows;
  if (data_rows == 0) return plan;

  // Pick boundaries: for each ideal split point, the last mark at or
  // before it. Ranges get whole strides, so every shard is within one
  // stride of the even split; drop boundaries that would leave a shard
  // with fewer than two rows.
  size_t shards = std::min<uint64_t>(num_shards, std::max<uint64_t>(
                                                     1, data_rows / 2));
  std::vector<size_t> chosen;  // indices into marks
  chosen.push_back(0);
  for (size_t s = 1; s < shards; ++s) {
    uint64_t ideal = data_rows * s / shards;
    // marks are sorted by row; binary search the last mark <= ideal.
    size_t lo = 0, hi = marks.size();
    while (hi - lo > 1) {
      size_t mid = (lo + hi) / 2;
      if (marks[mid].first <= ideal) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    if (lo != chosen.back() &&
        marks[lo].first >= marks[chosen.back()].first + 2 &&
        data_rows - marks[lo].first >= 2) {
      chosen.push_back(lo);
    }
  }
  plan.ranges.reserve(chosen.size());
  for (size_t i = 0; i < chosen.size(); ++i) {
    const auto& [row, offset] = marks[chosen[i]];
    ShardRange range;
    range.first_row = row;
    range.byte_begin = offset;
    if (i + 1 < chosen.size()) {
      range.num_rows = marks[chosen[i + 1]].first - row;
      range.byte_end = marks[chosen[i + 1]].second;
    } else {
      range.num_rows = data_rows - row;
      range.byte_end = end_offset;
    }
    plan.ranges.push_back(range);
  }
  return plan;
}

Result<std::vector<std::string>> ReadCsvAttributeNames(
    const std::string& path, const CsvOptions& options) {
  std::ifstream in;
  QIKEY_RETURN_NOT_OK(OpenCsvStream(path, &in));
  std::vector<std::string> names;
  CsvFieldSplitter splitter(options);
  Status walk = WalkCsvRecords(
      in, options, [&](const CsvRecord& record) {
        if (record.blank) return true;
        names = NamesFromFirstRecord(splitter.Split(record.text), options);
        return false;  // one record is enough
      });
  QIKEY_RETURN_NOT_OK(walk);
  if (names.empty()) {
    return Status::InvalidArgument("CSV has no records: " + path);
  }
  return names;
}

Status ForEachCsvRecordInRange(
    std::string_view text, const ShardRange& range,
    const CsvOptions& options,
    const std::function<Status(std::string_view record)>& fn) {
  uint64_t remaining = range.num_rows;
  uint64_t offset = range.byte_begin;
  CsvRecord record;
  while (remaining > 0 && offset < range.byte_end && offset < text.size()) {
    offset += NextCsvRecord(text.substr(offset), /*at_end=*/true, options,
                            &record);
    if (record.blank) continue;
    QIKEY_RETURN_NOT_OK(fn(record.text));
    --remaining;
  }
  if (remaining != 0) {
    return Status::IOError("shard range ended before its row count");
  }
  return Status::OK();
}

Result<ShardedIngestStats> ShardedLoader::Load(
    const std::string& path, const std::function<Status(ShardInput)>& consumer,
    const std::function<uint64_t()>& consumer_tracked) {
  std::ifstream in;
  QIKEY_RETURN_NOT_OK(OpenCsvStream(path, &in));

  ShardedIngestStats stats;
  // Chunk sizing: an explicit row cap wins; otherwise a budget caps the
  // chunk's code bytes at a quarter of it (the rest is headroom for the
  // dictionaries, the consumer's merged state, and the in-flight
  // chunk); otherwise a fixed default.
  size_t shard_rows = options_.shard_rows;
  uint64_t chunk_byte_cap = 0;
  if (shard_rows == 0) {
    if (options_.memory_budget_bytes > 0) {
      shard_rows = ~size_t{0};  // rows unbounded; bytes decide
      chunk_byte_cap =
          std::max<uint64_t>(options_.memory_budget_bytes / 4, 4096);
    } else {
      shard_rows = kDefaultShardRows;
    }
  }
  shard_rows = std::max<size_t>(shard_rows, 2);

  std::unique_ptr<DatasetBuilder> builder;
  CsvFieldSplitter splitter(options_.csv);
  uint32_t shard_index = 0;
  uint64_t first_row = 0;
  Status inner = Status::OK();
  // Two-record lookahead so a flush never strands a final one-row
  // shard (pair merges need >= 2 rows per shard). Held records outlive
  // the read buffer, so their text is copied into a ring of reused
  // strings (no allocation once they reach the longest record).
  std::array<std::string, 3> lookahead;
  size_t lookahead_head = 0;
  size_t lookahead_size = 0;

  auto track = [&](uint64_t live_chunk_bytes) -> Status {
    uint64_t tracked = live_chunk_bytes;
    if (builder != nullptr) {
      tracked += builder->EstimatedBytes();
    }
    if (consumer_tracked) tracked += consumer_tracked();
    stats.peak_tracked_bytes = std::max(stats.peak_tracked_bytes, tracked);
    if (options_.memory_budget_bytes > 0 &&
        tracked > options_.memory_budget_bytes) {
      return Status::OutOfRange(
          "sharded ingest exceeded the memory budget");
    }
    return Status::OK();
  };

  auto flush = [&]() -> Status {
    if (builder == nullptr || builder->num_rows() == 0) return Status::OK();
    uint64_t rows = builder->num_rows();
    ShardInput shard;
    shard.rows = builder->TakeShard();
    shard.shard_index = shard_index++;
    shard.first_row = first_row;
    first_row += rows;
    uint64_t chunk_bytes = shard.rows.num_rows() *
                           shard.rows.num_attributes() * sizeof(ValueCode);
    QIKEY_RETURN_NOT_OK(consumer(std::move(shard)));
    ++stats.num_shards;
    return track(chunk_bytes);
  };

  // Encodes the oldest held record, flushing the chunk first when full.
  auto add_row = [&](std::string_view record) -> Status {
    bool full = builder->num_rows() >= shard_rows;
    if (chunk_byte_cap > 0 && builder->num_rows() >= 2) {
      uint64_t chunk_bytes = builder->num_rows() *
                             builder->num_attributes() * sizeof(ValueCode);
      full = full || chunk_bytes >= chunk_byte_cap;
    }
    if (full) QIKEY_RETURN_NOT_OK(flush());
    QIKEY_RETURN_NOT_OK(builder->AddRow(splitter.Split(record)));
    if (builder->num_rows() % 256 == 0) {
      QIKEY_RETURN_NOT_OK(track(0));
    }
    ++stats.total_rows;
    return Status::OK();
  };

  Status walk = WalkCsvRecords(
      in, options_.csv, [&](const CsvRecord& record) {
        if (record.blank) return true;
        if (builder == nullptr) {
          std::span<const std::string_view> fields =
              splitter.Split(record.text);
          dictionaries_.assign(fields.size(), nullptr);
          for (auto& d : dictionaries_) d = std::make_shared<Dictionary>();
          builder = std::make_unique<DatasetBuilder>(
              NamesFromFirstRecord(fields, options_.csv), dictionaries_);
          if (options_.csv.has_header) return true;
        }
        lookahead[(lookahead_head + lookahead_size++) % 3].assign(
            record.text);
        if (lookahead_size == 3) {
          inner = add_row(lookahead[lookahead_head]);
          lookahead_head = (lookahead_head + 1) % 3;
          --lookahead_size;
          if (!inner.ok()) return false;
        }
        return true;
      });
  QIKEY_RETURN_NOT_OK(walk);
  QIKEY_RETURN_NOT_OK(inner);
  for (; lookahead_size > 0; --lookahead_size) {
    QIKEY_RETURN_NOT_OK(
        builder->AddRow(splitter.Split(lookahead[lookahead_head])));
    lookahead_head = (lookahead_head + 1) % 3;
    ++stats.total_rows;
  }
  QIKEY_RETURN_NOT_OK(flush());
  if (stats.total_rows == 0) {
    return Status::InvalidArgument("CSV has no data rows: " + path);
  }
  // With every row drained, the builder's estimate is pure dictionary.
  stats.dictionary_bytes = builder != nullptr ? builder->EstimatedBytes() : 0;
  return stats;
}

}  // namespace qikey
