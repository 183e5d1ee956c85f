#include "shard/sharded_loader.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>

#include "data/schema.h"

namespace qikey {

namespace {

constexpr size_t kIoBufferBytes = size_t{1} << 18;  // 256 KiB
constexpr size_t kMaxBoundaryMarks = size_t{1} << 16;

}  // namespace

std::vector<std::string> CsvAttributeNames(
    std::span<const std::string_view> fields, const CsvOptions& options) {
  return options.has_header
             ? std::vector<std::string>(fields.begin(), fields.end())
             : Schema::Anonymous(fields.size()).names();
}

Status OpenCsvStream(const std::string& path, std::ifstream* in) {
  std::error_code error;
  if (std::filesystem::is_directory(path, error)) {
    return Status::IOError("is a directory: " + path);
  }
  in->open(path, std::ios::binary);
  if (!*in) return Status::IOError("cannot open: " + path);
  return Status::OK();
}

Status WalkCsvRecords(
    std::istream& in, const CsvOptions& options,
    const std::function<bool(const CsvRecord& record, size_t buffer_bytes)>&
        on_record) {
  std::string buffer(kIoBufferBytes, '\0');
  size_t head = 0;  // unconsumed bytes are buffer[head, tail)
  size_t tail = 0;
  bool at_end = false;
  CsvRecord record;
  while (true) {
    std::string_view pending(buffer.data() + head, tail - head);
    if (size_t used = NextCsvRecord(pending, at_end, options, &record)) {
      if (!on_record(record, buffer.size())) break;
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
          CsvAttributeNames(splitter.Split(record.text), options);
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
  // No records, no rows: the error every discover path gives for it.
  if (!names_known) return Status::InvalidArgument("need at least two rows");
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
      in, options, [&](const CsvRecord& record, size_t) {
        if (record.blank) return true;
        names = CsvAttributeNames(splitter.Split(record.text), options);
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

}  // namespace qikey
