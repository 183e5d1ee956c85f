#ifndef QIKEY_DATA_CSV_LOADER_INTERNAL_H_
#define QIKEY_DATA_CSV_LOADER_INTERNAL_H_

// Test seam of the chunked CSV loader. Not part of the public API: the
// public loaders derive the chunk count from the input and the
// hardware, and callers have no reason to choose it.

#include <cstddef>
#include <string_view>

#include "data/dataset.h"
#include "util/csv.h"
#include "util/status.h"

namespace qikey::internal {

/// The chunked loader behind `LoadCsvDataset` and
/// `LoadCsvDatasetFromString`, with the data records split into exactly
/// `num_chunks` contiguous chunks (more chunks than records leaves some
/// empty). 0 derives the count as the public loaders do. The result,
/// error text included, must not depend on `num_chunks`.
Result<Dataset> LoadCsvDatasetInChunks(std::string_view text,
                                       const CsvOptions& options,
                                       size_t num_chunks);

}  // namespace qikey::internal

#endif  // QIKEY_DATA_CSV_LOADER_INTERNAL_H_
