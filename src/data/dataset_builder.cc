#include "data/dataset_builder.h"

#include <sstream>

namespace qikey {

DatasetBuilder::DatasetBuilder(std::vector<std::string> attribute_names)
    : schema_(std::move(attribute_names)) {
  dictionaries_.reserve(schema_.num_attributes());
  codes_.resize(schema_.num_attributes());
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    dictionaries_.push_back(std::make_shared<Dictionary>());
  }
}

DatasetBuilder::DatasetBuilder(
    std::vector<std::string> attribute_names,
    std::vector<std::shared_ptr<Dictionary>> dictionaries)
    : schema_(std::move(attribute_names)),
      dictionaries_(std::move(dictionaries)) {
  codes_.resize(schema_.num_attributes());
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    if (dictionaries_.size() <= i || dictionaries_[i] == nullptr) {
      if (dictionaries_.size() <= i) dictionaries_.resize(i + 1);
      dictionaries_[i] = std::make_shared<Dictionary>();
    }
  }
  dict_bytes_ = DictionaryBytes();
}

uint64_t DatasetBuilder::DictionaryBytes() const {
  uint64_t bytes = 0;
  for (const auto& dict : dictionaries_) {
    for (ValueCode c = 0; c < dict->size(); ++c) {
      // String payload plus rough per-entry index overhead.
      bytes += dict->Value(c).size() + 2 * sizeof(void*);
    }
  }
  return bytes;
}

Status DatasetBuilder::AddRow(std::span<const std::string_view> fields) {
  if (fields.size() != dictionaries_.size()) {
    std::ostringstream msg;
    msg << "row has " << fields.size() << " fields, expected "
        << dictionaries_.size();
    return Status::InvalidArgument(msg.str());
  }
  for (size_t j = 0; j < fields.size(); ++j) {
    size_t before = dictionaries_[j]->size();
    codes_[j].push_back(dictionaries_[j]->GetOrAdd(fields[j]));
    if (dictionaries_[j]->size() != before) {
      dict_bytes_ += fields[j].size() + 2 * sizeof(void*);
    }
  }
  ++num_rows_;
  return Status::OK();
}

uint64_t DatasetBuilder::EstimatedBytes() const {
  uint64_t bytes = dict_bytes_;
  for (const auto& col : codes_) bytes += col.size() * sizeof(ValueCode);
  return bytes;
}

Dataset DatasetBuilder::Finish() && {
  std::vector<Column> columns;
  columns.reserve(codes_.size());
  for (size_t j = 0; j < codes_.size(); ++j) {
    uint32_t cardinality = static_cast<uint32_t>(dictionaries_[j]->size());
    columns.emplace_back(std::move(codes_[j]), std::max(cardinality, 1u),
                         dictionaries_[j]);
  }
  return Dataset(std::move(schema_), std::move(columns));
}

Dataset DatasetBuilder::TakeShard() {
  std::vector<Column> columns;
  columns.reserve(codes_.size());
  for (size_t j = 0; j < codes_.size(); ++j) {
    uint32_t cardinality = static_cast<uint32_t>(dictionaries_[j]->size());
    std::vector<ValueCode> drained = std::move(codes_[j]);
    codes_[j].clear();
    columns.emplace_back(std::move(drained), std::max(cardinality, 1u),
                         dictionaries_[j]);
  }
  num_rows_ = 0;
  return Dataset(Schema(schema_.names()), std::move(columns));
}

}  // namespace qikey
