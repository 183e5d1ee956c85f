// Fuzz target: QSNP1 snapshot loading must return a Status — never
// crash, over-allocate, or create a wild borrowed pointer — on
// arbitrary bytes. `SnapshotFromOwnedBytes` runs the exact validation
// path the mmap reader runs (same layout parse, same borrowed-view
// construction), just over a copied buffer.

#include <string_view>

#include "core/attribute_set.h"
#include "data/wire_codec.h"
#include "engine/pipeline.h"
#include "fuzz_target.h"
#include "serve/snapshot.h"
#include "snapfile/snapfile.h"
#include "util/logging.h"
#include "util/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace qikey;
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  Result<ServeSnapshot> snapshot = snapfile::SnapshotFromOwnedBytes(bytes);
  if (snapshot.ok()) {
    // An image that validates must be servable: touch the sample, run
    // the filter over the full attribute set, and re-serialize (which
    // walks every component again).
    size_t m = snapshot->schema().num_attributes();
    AttributeSet all(m);
    for (size_t j = 0; j < m; ++j) {
      all.Add(static_cast<AttributeIndex>(j));
    }
    (void)snapshot->filter->Query(all);
    for (size_t j = 0; j < m; ++j) {
      for (size_t i = 0; i < snapshot->sample->num_rows(); ++i) {
        (void)snapshot->sample->code(static_cast<RowIndex>(i),
                                     static_cast<AttributeIndex>(j));
      }
    }
    (void)snapfile::SerializeSnapshot(*snapshot);
  }
  return 0;
}

std::vector<std::string> FuzzSeedInputs() {
  using namespace qikey;
  std::vector<std::string> seeds;
  // One tiny but fully populated snapshot per filter backend, so the
  // mutation schedule explores every section kind (packed evidence,
  // nested sample blob) from a valid starting point.
  std::vector<Column> columns;
  columns.emplace_back(std::vector<ValueCode>{0, 1, 2, 3, 4, 5, 6, 7});
  columns.emplace_back(std::vector<ValueCode>{0, 1, 0, 1, 0, 1, 0, 1});
  columns.emplace_back(std::vector<ValueCode>{0, 0, 1, 1, 2, 2, 0, 1});
  Dataset data(Schema({"id", "par", "grp"}), std::move(columns));
  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    PipelineOptions options;
    options.eps = 0.01;
    options.backend = backend;
    Rng rng(5);
    auto result = DiscoveryPipeline(options).Run(data, &rng);
    if (!result.ok()) continue;
    auto snapshot = SnapshotFromPipelineResult(*result, options.eps);
    if (!snapshot.ok()) continue;
    auto image = snapfile::SerializeSnapshot(*snapshot);
    if (image.ok()) seeds.push_back(std::move(*image));
  }
  // No writer emits the legacy mx-pair layout (backend byte 1, raw
  // pair-code section) any more; the committed golden image keeps its
  // reader path fuzzed.
  Result<std::string> legacy =
      ReadFileBytes(std::string(QIKEY_GOLDEN_DIR) + "/people_mx.qsnp");
  QIKEY_CHECK(legacy.ok());
  seeds.push_back(std::move(*legacy));
  seeds.push_back("QSNP1");  // truncated magic
  seeds.push_back("");
  return seeds;
}
