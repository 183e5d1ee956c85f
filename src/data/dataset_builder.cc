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

Status DatasetBuilder::AddRow(std::span<const std::string_view> fields) {
  if (fields.size() != dictionaries_.size()) {
    std::ostringstream msg;
    msg << "row has " << fields.size() << " fields, expected "
        << dictionaries_.size();
    return Status::InvalidArgument(msg.str());
  }
  for (size_t j = 0; j < fields.size(); ++j) {
    codes_[j].push_back(dictionaries_[j]->GetOrAdd(fields[j]));
  }
  ++num_rows_;
  return Status::OK();
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

}  // namespace qikey
