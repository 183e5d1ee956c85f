#include "data/csv_loader.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "data/csv_loader_internal.h"
#include "util/logging.h"
#include "util/mapped_file.h"
#include "util/thread_pool.h"

namespace qikey {

namespace {

/// Fewest data records worth a chunk (and a thread) of their own: tens
/// of milliseconds of encoding on a wide table, far above the cost of a
/// thread and of merging one more set of dictionaries.
constexpr size_t kMinChunkRecords = 8192;

/// The text after one serial pass: the attribute names (the header, or
/// anonymous names as many as the first record's fields) and the
/// non-blank data records in file order.
struct LocatedRecords {
  std::vector<std::string> names;
  std::vector<std::string_view> rows;
};

LocatedRecords LocateRecords(std::string_view text,
                             const CsvOptions& options) {
  LocatedRecords located;
  bool first = true;
  CsvRecord record;
  while (size_t used = NextCsvRecord(text, /*at_end=*/true, options, &record)) {
    text.remove_prefix(used);
    if (record.blank) continue;
    if (first) {
      first = false;
      CsvFieldSplitter splitter(options);
      std::span<const std::string_view> fields = splitter.Split(record.text);
      if (options.has_header) {
        located.names.assign(fields.begin(), fields.end());
        continue;
      }
      located.names = Schema::Anonymous(fields.size()).names();
    }
    located.rows.push_back(record.text);
  }
  return located;
}

/// One chunk's encoding state: a dictionary per column whose codes
/// follow first appearance within the chunk, and the chunk's first
/// record of the wrong width, if any.
struct ChunkCodes {
  std::vector<Dictionary> dictionaries;
  std::optional<size_t> bad_row;  // index into the data records
  size_t bad_row_fields = 0;
};

/// Splits a quote-free record and encodes its first `m` fields into row
/// `row` of `columns` in one byte loop. Returns the record's field
/// count, which the caller checks against `m`.
size_t EncodePlainRecord(std::string_view record, const CsvOptions& options,
                         size_t row, ValueCode* const* columns,
                         Dictionary* dictionaries, size_t m) {
  size_t j = 0;
  const char* begin = record.data();
  const char* end = begin + record.size();
  for (const char* p = begin;; ++p) {
    if (p == end || *p == options.delimiter) {
      if (j < m) {
        std::string_view field(begin, static_cast<size_t>(p - begin));
        columns[j][row] = dictionaries[j].GetOrAdd(
            options.trim_whitespace ? TrimCsvField(field) : field);
      }
      ++j;
      if (p == end) return j;
      begin = p + 1;
    }
  }
}

/// Encodes data records `[begin, end)` into their rows of `columns`
/// through the chunk's own dictionaries, stopping at the first record
/// whose width is not `m`.
void EncodeChunk(std::span<const std::string_view> rows, size_t begin,
                 size_t end, const CsvOptions& options,
                 ValueCode* const* columns, size_t m, ChunkCodes* chunk) {
  chunk->dictionaries.resize(m);
  Dictionary* dictionaries = chunk->dictionaries.data();
  CsvFieldSplitter splitter(options);
  for (size_t r = begin; r < end; ++r) {
    std::string_view record = rows[r];
    size_t fields = 0;
    if (record.find(options.quote) == std::string_view::npos) {
      fields = EncodePlainRecord(record, options, r, columns, dictionaries, m);
    } else {
      std::span<const std::string_view> split = splitter.Split(record);
      fields = split.size();
      for (size_t j = 0; fields == m && j < m; ++j) {
        columns[j][r] = dictionaries[j].GetOrAdd(split[j]);
      }
    }
    if (fields != m) {
      chunk->bad_row = r;
      chunk->bad_row_fields = fields;
      return;
    }
  }
}

/// Folds column `j`'s chunk dictionaries into chunk 0's in chunk order
/// and rewrites each later chunk's codes to the merged ones. Adding a
/// chunk's values in its local code order adds the values new to the
/// merged dictionary in order of first appearance, so the result is the
/// dictionary a serial pass would have built.
Column MergeColumn(size_t j, std::span<ChunkCodes> chunks,
                   std::vector<ValueCode> codes) {
  const size_t k = chunks.size();
  const size_t n = codes.size();
  Dictionary merged = std::move(chunks[0].dictionaries[j]);
  std::vector<ValueCode> remap;
  for (size_t c = 1; c < k; ++c) {
    Dictionary local = std::move(chunks[c].dictionaries[j]);
    remap.resize(local.size());
    bool identity = true;
    for (ValueCode code = 0; code < local.size(); ++code) {
      remap[code] = merged.GetOrAdd(local.Value(code));
      identity = identity && remap[code] == code;
    }
    if (identity) continue;
    for (size_t r = c * n / k; r < (c + 1) * n / k; ++r) {
      codes[r] = remap[codes[r]];
    }
  }
  uint32_t cardinality = static_cast<uint32_t>(merged.size());
  return Column(std::move(codes), std::max(cardinality, 1u),
                std::make_shared<Dictionary>(std::move(merged)));
}

/// Workers worth starting for `records` records: one per
/// `kMinChunkRecords`, at least one, at most the usable CPUs.
size_t ThreadsFor(size_t records) {
  return std::clamp(records / kMinChunkRecords, size_t{1}, UsableCpuCount());
}

/// A pool for `records` records cut into `*num_chunks` chunks (0 is
/// replaced by the count the work sets), or null when one thread does.
/// The work sets the thread count; a forced chunk count only changes how
/// the records are cut, so tiny inputs never start threads.
std::unique_ptr<ThreadPool> ChunkPool(size_t records, size_t* num_chunks) {
  const size_t threads = ThreadsFor(records);
  if (*num_chunks == 0) *num_chunks = threads;
  if (std::min(*num_chunks, threads) <= 1) return nullptr;
  return std::make_unique<ThreadPool>(std::min(*num_chunks, threads));
}

/// The loader's error for data record `record` of `text`, which has
/// `fields` fields where `m` were expected.
Status WidthError(std::string_view text, std::string_view record,
                  size_t fields, size_t m, const CsvOptions& options) {
  return CsvWidthError(CsvRecordNumber(text, record.data(), options), fields,
                       m);
}

/// Encodes `records` (data records of `text`, in order) into `m`
/// columns, cut into `num_chunks` contiguous chunks (0 sizes them by the
/// work) that encode in parallel through chunk-local dictionaries,
/// merged in chunk order: the codes follow first appearance in
/// `records`, whatever the cut. The first record whose width is not `m`
/// is the loader's error.
Result<std::vector<Column>> EncodeRecords(
    std::string_view text, std::span<const std::string_view> records,
    size_t m, const CsvOptions& options, size_t num_chunks) {
  size_t k = num_chunks;
  std::unique_ptr<ThreadPool> owned_pool = ChunkPool(records.size(), &k);
  ThreadPool* pool = owned_pool.get();
  const size_t n = records.size();
  std::vector<std::vector<ValueCode>> codes(m);
  ThreadPool::ParallelFor(pool, m, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) codes[j].resize(n);
  });
  std::vector<ValueCode*> columns(m);
  for (size_t j = 0; j < m; ++j) columns[j] = codes[j].data();
  std::vector<ChunkCodes> chunks(k);
  ThreadPool::ParallelFor(pool, k, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      EncodeChunk(records, c * n / k, (c + 1) * n / k, options,
                  columns.data(), m, &chunks[c]);
    }
  });
  // Chunks run in record order, so the first chunk that stopped early
  // holds the first malformed record.
  for (const ChunkCodes& chunk : chunks) {
    if (chunk.bad_row.has_value()) {
      return WidthError(text, records[*chunk.bad_row], chunk.bad_row_fields,
                        m, options);
    }
  }

  std::vector<Column> merged(m);
  ThreadPool::ParallelFor(pool, m, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      merged[j] = MergeColumn(j, chunks, std::move(codes[j]));
    }
  });
  return merged;
}

}  // namespace

namespace internal {

Result<Dataset> LoadCsvDatasetInChunks(std::string_view text,
                                       const CsvOptions& options,
                                       size_t num_chunks) {
  LocatedRecords located = LocateRecords(text, options);
  Result<std::vector<Column>> columns = EncodeRecords(
      text, located.rows, located.names.size(), options, num_chunks);
  if (!columns.ok()) return columns.status();
  return Dataset(Schema(std::move(located.names)),
                 std::move(columns).ValueOrDie());
}

Result<std::unique_ptr<CsvRowReader>> CsvRowReaderForText(
    std::string_view text, const CsvOptions& options, size_t num_chunks) {
  std::unique_ptr<CsvRowReader> reader(
      new CsvRowReader(text, options, num_chunks));
  QIKEY_RETURN_NOT_OK(reader->Index());
  return reader;
}

}  // namespace internal

Result<Dataset> LoadCsvDataset(const std::string& path,
                               const CsvOptions& options) {
  Result<FileText> text = FileText::Open(path);
  if (!text.ok()) return text.status();
  return internal::LoadCsvDatasetInChunks(text->view(), options,
                                          /*num_chunks=*/0);
}

Result<Dataset> LoadCsvDatasetFromString(std::string_view text,
                                         const CsvOptions& options) {
  return internal::LoadCsvDatasetInChunks(text, options, /*num_chunks=*/0);
}

CsvRowReader::CsvRowReader(std::string_view text, const CsvOptions& options,
                           size_t num_chunks)
    : text_(text), options_(options), num_chunks_(num_chunks) {}

CsvRowReader::~CsvRowReader() = default;

Result<std::unique_ptr<CsvRowReader>> CsvRowReader::Open(
    const std::string& path, const CsvOptions& options) {
  Result<FileText> file = FileText::Open(path);
  if (!file.ok()) return file.status();
  // The reader never moves once built, so the views its index takes
  // into the text stay valid, an owned (pipe) text's included.
  std::unique_ptr<CsvRowReader> reader(
      new CsvRowReader(std::string_view(), options, /*num_chunks=*/0));
  reader->file_ = std::make_unique<FileText>(std::move(file).ValueOrDie());
  reader->text_ = reader->file_->view();
  QIKEY_RETURN_NOT_OK(reader->Index());
  return reader;
}

Status CsvRowReader::Index() {
  // The loader's serial pass finds the records (a quote may hide
  // newlines). Their widths are checked in contiguous chunks of records,
  // in parallel; chunks run in record order, so the first chunk with a
  // bad record holds the first one.
  LocatedRecords located = LocateRecords(text_, options_);
  names_ = std::move(located.names);
  rows_ = std::move(located.rows);
  const size_t n = rows_.size();
  const size_t m = names_.size();
  size_t k = num_chunks_;
  std::unique_ptr<ThreadPool> pool = ChunkPool(n, &k);
  std::vector<std::optional<size_t>> bad_row(k);
  std::vector<size_t> bad_fields(k, 0);
  ThreadPool::ParallelFor(pool.get(), k, [&](size_t begin, size_t end) {
    CsvFieldSplitter splitter(options_);
    for (size_t c = begin; c < end; ++c) {
      for (size_t r = c * n / k; r < (c + 1) * n / k; ++r) {
        const size_t fields = CountCsvFields(rows_[r], options_, &splitter);
        if (fields != m) {
          bad_row[c] = r;
          bad_fields[c] = fields;
          break;
        }
      }
    }
  });
  for (size_t c = 0; c < k; ++c) {
    if (bad_row[c].has_value()) {
      return WidthError(text_, rows_[*bad_row[c]], bad_fields[c], m, options_);
    }
  }
  return Status::OK();
}

Dataset CsvRowReader::EncodeRows(std::span<const RowIndex> rows) const {
  std::vector<std::string_view> records;
  records.reserve(rows.size());
  for (RowIndex row : rows) {
    QIKEY_CHECK(row < rows_.size()) << "row " << row << " out of range";
    records.push_back(rows_[row]);
  }
  // Every record's width was checked when the file was indexed.
  Result<std::vector<Column>> columns =
      EncodeRecords(text_, records, names_.size(), options_, num_chunks_);
  QIKEY_CHECK(columns.ok()) << columns.status().ToString();
  return Dataset(Schema(names_), std::move(columns).ValueOrDie());
}

std::string DatasetToCsv(const Dataset& dataset, const CsvOptions& options) {
  CsvTable table;
  table.header = dataset.schema().names();
  table.rows.reserve(dataset.num_rows());
  for (RowIndex r = 0; r < dataset.num_rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(dataset.num_attributes());
    for (AttributeIndex j = 0; j < dataset.num_attributes(); ++j) {
      const Column& col = dataset.column(j);
      if (col.dictionary() != nullptr) {
        row.push_back(col.dictionary()->Value(col.code(r)));
      } else {
        row.push_back(std::to_string(col.code(r)));
      }
    }
    table.rows.push_back(std::move(row));
  }
  return WriteCsv(table, options);
}

Status SaveCsvDataset(const Dataset& dataset, const std::string& path,
                      const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  std::string text = DatasetToCsv(dataset, options);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace qikey
