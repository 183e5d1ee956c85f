#ifndef QIKEY_DATA_DATASET_BUILDER_H_
#define QIKEY_DATA_DATASET_BUILDER_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace qikey {

/// \brief Row-at-a-time builder for `Dataset` with per-column
/// dictionary encoding.
///
/// Each column gets its own dictionary, which starts empty. For small
/// literal tables (tests, examples, the CSV test oracle); the CSV
/// loaders and the shard builders encode through their own paths:
///
///     DatasetBuilder b({"city", "zip"});
///     b.AddRow({"SF", "94103"});
///     b.AddRow({"SD", "92115"});
///     Dataset d = std::move(b).Finish();
class DatasetBuilder {
 public:
  explicit DatasetBuilder(std::vector<std::string> attribute_names);

  /// Appends one tuple. Must have exactly `num_attributes` fields. The
  /// views need only live for the call: values are copied into the
  /// dictionaries on first appearance.
  Status AddRow(std::span<const std::string_view> fields);
  Status AddRow(std::initializer_list<std::string_view> fields) {
    return AddRow(std::span<const std::string_view>(fields.begin(),
                                                    fields.size()));
  }

  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return dictionaries_.size(); }

  /// Finalizes the data set; the builder is left empty.
  Dataset Finish() &&;

 private:
  Schema schema_;
  std::vector<std::shared_ptr<Dictionary>> dictionaries_;
  std::vector<std::vector<ValueCode>> codes_;
  size_t num_rows_ = 0;
};

}  // namespace qikey

#endif  // QIKEY_DATA_DATASET_BUILDER_H_
