#include "data/csv_loader.h"

#include <fstream>
#include <optional>
#include <utility>

#include "data/dataset_builder.h"

namespace qikey {

namespace {

/// Encodes rows straight from the scanner's field views: the header (or
/// the first record's width) names the columns, every data row goes to
/// the builder as it is read, and no intermediate table exists.
class DatasetSink {
 public:
  CsvRowVisitor Visitor() {
    return [this](std::span<const std::string_view> fields, bool is_header) {
      if (!builder_.has_value()) {
        builder_.emplace(is_header
                             ? std::vector<std::string>(fields.begin(),
                                                        fields.end())
                             : Schema::Anonymous(fields.size()).names());
        if (is_header) return Status::OK();
      }
      return builder_->AddRow(fields);
    };
  }

  Dataset Finish() && {
    if (!builder_.has_value()) builder_.emplace(std::vector<std::string>{});
    return std::move(*builder_).Finish();
  }

 private:
  std::optional<DatasetBuilder> builder_;
};

}  // namespace

Result<Dataset> LoadCsvDataset(const std::string& path,
                               const CsvOptions& options) {
  DatasetSink sink;
  QIKEY_RETURN_NOT_OK(ScanCsvFile(path, options, sink.Visitor()));
  return std::move(sink).Finish();
}

Result<Dataset> LoadCsvDatasetFromString(std::string_view text,
                                         const CsvOptions& options) {
  DatasetSink sink;
  QIKEY_RETURN_NOT_OK(ScanCsv(text, options, sink.Visitor()));
  return std::move(sink).Finish();
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
