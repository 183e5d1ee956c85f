#ifndef QIKEY_DATA_CSV_LOADER_H_
#define QIKEY_DATA_CSV_LOADER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "util/csv.h"
#include "util/status.h"

namespace qikey {

class CsvRowReader;
class FileText;

namespace internal {
/// Test seam: a `CsvRowReader` over `text` (which must outlive it) whose
/// width check and encode are each cut into exactly `num_chunks` chunks
/// (0 sizes them by the work, as `Open` does). No result, error text
/// included, may depend on `num_chunks`.
Result<std::unique_ptr<CsvRowReader>> CsvRowReaderForText(
    std::string_view text, const CsvOptions& options, size_t num_chunks);
}  // namespace internal

/// \brief Loads a CSV file into a dictionary-encoded `Dataset`.
///
/// Every column is treated categorically (dictionary-encoded strings),
/// which is exactly what the separation problem needs. Missing header
/// rows get anonymous attribute names.
Result<Dataset> LoadCsvDataset(const std::string& path,
                               const CsvOptions& options = {});

/// In-memory variant for tests.
Result<Dataset> LoadCsvDatasetFromString(std::string_view text,
                                         const CsvOptions& options = {});

/// \brief A CSV file opened for sample-first reading: a caller that
/// needs only some rows encodes just those (`EncodeRows`).
///
/// `Open` locates the records with `LoadCsvDataset`'s serial pass and
/// checks every record's width, so a malformed file fails with the
/// loader's error ("CSV record N has F fields, expected M") before any
/// row is read. The reader keeps the file's text (a mapping, or the
/// bytes of a pipe) and views into it, so it is handed out behind a
/// `unique_ptr` and never moves; everything its methods return is
/// owned. The width check and the encode are cut into chunks of
/// records sized by the work and the usable CPUs, and no result
/// depends on the cut.
class CsvRowReader {
 public:
  static Result<std::unique_ptr<CsvRowReader>> Open(
      const std::string& path, const CsvOptions& options = {});

  ~CsvRowReader();
  CsvRowReader(const CsvRowReader&) = delete;
  CsvRowReader& operator=(const CsvRowReader&) = delete;

  /// The header's names, or anonymous ones as wide as the first record.
  const std::vector<std::string>& names() const { return names_; }
  /// Non-blank data records.
  uint64_t num_rows() const { return rows_.size(); }

  /// The table of data rows `rows`, in that order, encoded by
  /// `LoadCsvDataset`'s chunk-parallel encoder: values compare equal
  /// exactly where the loaded table's do, but codes follow first
  /// appearance in `rows`, and each column's dictionary (and
  /// cardinality) holds only these rows' values.
  Dataset EncodeRows(std::span<const RowIndex> rows) const;

 private:
  friend Result<std::unique_ptr<CsvRowReader>> internal::CsvRowReaderForText(
      std::string_view text, const CsvOptions& options, size_t num_chunks);

  CsvRowReader(std::string_view text, const CsvOptions& options,
               size_t num_chunks);
  /// Locates the records and checks their widths.
  Status Index();

  std::unique_ptr<FileText> file_;  // null for a caller's text
  std::string_view text_;
  CsvOptions options_;
  size_t num_chunks_;  // 0 = sized by the work
  std::vector<std::string> names_;
  std::vector<std::string_view> rows_;
};

/// \brief Renders a data set back to CSV text (dictionary values when
/// present, otherwise decimal codes). Round trips through
/// `LoadCsvDatasetFromString` with the identical separation structure.
std::string DatasetToCsv(const Dataset& dataset,
                         const CsvOptions& options = {});

/// Writes `DatasetToCsv` output to `path`.
Status SaveCsvDataset(const Dataset& dataset, const std::string& path,
                      const CsvOptions& options = {});

}  // namespace qikey

#endif  // QIKEY_DATA_CSV_LOADER_H_
