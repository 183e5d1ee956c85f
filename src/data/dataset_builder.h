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
/// Used by the sharded loader and by tests that write small literal
/// tables:
///
///     DatasetBuilder b({"city", "zip"});
///     b.AddRow({"SF", "94103"});
///     b.AddRow({"SD", "92115"});
///     Dataset d = std::move(b).Finish();
class DatasetBuilder {
 public:
  explicit DatasetBuilder(std::vector<std::string> attribute_names);

  /// Builds against caller-owned dictionaries (one per attribute), so
  /// several builders — or successive shards drained from one builder —
  /// encode into the SAME code space. Used by the sharded loader: codes
  /// of different shards then compare directly without re-encoding.
  DatasetBuilder(std::vector<std::string> attribute_names,
                 std::vector<std::shared_ptr<Dictionary>> dictionaries);

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

  /// Bytes held by the accumulated codes plus (approximately) the
  /// dictionary strings — the live ingest state the sharded loader
  /// charges against its memory budget.
  uint64_t EstimatedBytes() const;

  /// Finalizes the data set; the builder is left empty.
  Dataset Finish() &&;

  /// Drains the accumulated rows into a data set that SHARES the
  /// builder's dictionaries, leaving the builder empty but reusable:
  /// the next rows keep encoding into the same dictionaries. Column
  /// cardinality is the dictionary size at drain time. This is the
  /// chunked-ingest primitive: one shard out, dictionary kept warm.
  Dataset TakeShard();

 private:
  uint64_t DictionaryBytes() const;

  Schema schema_;
  std::vector<std::shared_ptr<Dictionary>> dictionaries_;
  std::vector<std::vector<ValueCode>> codes_;
  size_t num_rows_ = 0;
  uint64_t dict_bytes_ = 0;  // grown incrementally; O(1) per AddRow field
};

}  // namespace qikey

#endif  // QIKEY_DATA_DATASET_BUILDER_H_
