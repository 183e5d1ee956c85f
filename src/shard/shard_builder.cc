#include "shard/shard_builder.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/sample_bounds.h"
#include "data/schema.h"
#include "stream/pair_slots.h"
#include "stream/reservoir.h"
#include "stream/tuple_sample.h"
#include "util/logging.h"
#include "util/mapped_file.h"
#include "util/thread_pool.h"

namespace qikey {

namespace {

/// The artifact of rows `[lo, lo + n)` of `d`: `r` sampled tuples, then
/// (bitset backend) `s` pair slots, all drawn from `rng`.
ShardFilterArtifact SampleRowRange(const Dataset& d, uint64_t lo, uint64_t n,
                                   FilterBackend backend, uint64_t r,
                                   uint64_t s, Rng* rng) {
  ShardFilterArtifact artifact;
  artifact.first_row = lo;
  artifact.rows_seen = n;
  artifact.backend = backend;
  TupleSample drawn = DrawTupleSample(d, lo, n, r, rng);
  artifact.tuple_sample = std::move(drawn.sample);
  artifact.provenance = std::move(drawn.provenance);
  if (backend == FilterBackend::kBitset) {
    std::vector<RowIndex> rows;
    rows.reserve(2 * static_cast<size_t>(s));
    for (auto [a, b] : DrawPairSlots(n, s, rng)) {
      rows.push_back(static_cast<RowIndex>(lo + a));
      rows.push_back(static_cast<RowIndex>(lo + b));
    }
    artifact.pair_table = d.SelectRows(rows);
  }
  return artifact;
}

}  // namespace

void ResolveShardSampleSizes(const ShardedBuildOptions& options, uint32_t m,
                             uint64_t* tuple_sample_size,
                             uint64_t* pair_slots) {
  *tuple_sample_size =
      ResolveTupleSampleSize(options.tuple_sample_size, m, options.eps);
  *pair_slots = ResolvePairSampleSize(options.pair_slots, m, options.eps);
}

// ---------------------------------------------------------------------------
// ShardArtifactBuilder

struct ShardArtifactBuilder::Impl {
  Schema schema;
  std::vector<std::shared_ptr<Dictionary>> dicts;
  CsvOptions csv;
  CsvFieldSplitter splitter;
  FilterBackend backend;
  uint32_t shard_index;
  uint64_t first_row;
  Rng rng;

  // Tuple side: reservoir of (codes, local position).
  ReservoirSampler<std::pair<std::vector<ValueCode>, uint64_t>> tuples;
  // The row being offered, encoded in place; the reservoirs copy it only
  // when they keep it.
  std::pair<std::vector<ValueCode>, uint64_t> offered;
  // Pair side: per-slot pair reservoirs retaining the kept rows.
  std::unique_ptr<PairReservoir> pairs;
  // Estimated dictionary bytes: each value's bytes plus two words of
  // index overhead.
  uint64_t dict_bytes = 0;

  Impl(std::vector<std::string> names_in, const CsvOptions& csv_in,
       FilterBackend backend_in, uint64_t tuple_sample_size,
       uint64_t pair_slots, uint32_t shard_index_in, uint64_t first_row_in,
       uint64_t seed)
      : schema(std::move(names_in)),
        csv(csv_in),
        splitter(csv_in),
        backend(backend_in),
        shard_index(shard_index_in),
        first_row(first_row_in),
        rng(seed),
        tuples(static_cast<size_t>(tuple_sample_size), &rng) {
    dicts.reserve(schema.num_attributes());
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      dicts.push_back(std::make_shared<Dictionary>());
    }
    if (backend == FilterBackend::kBitset) {
      pairs = std::make_unique<PairReservoir>(
          static_cast<size_t>(pair_slots), &rng);
    }
  }
};

ShardArtifactBuilder::ShardArtifactBuilder(
    std::vector<std::string> attribute_names, const CsvOptions& csv,
    FilterBackend backend, uint64_t tuple_sample_size, uint64_t pair_slots,
    uint32_t shard_index, uint64_t first_row, uint64_t seed)
    : impl_(std::make_unique<Impl>(std::move(attribute_names), csv, backend,
                                   tuple_sample_size, pair_slots, shard_index,
                                   first_row, seed)) {}

ShardArtifactBuilder::~ShardArtifactBuilder() = default;
ShardArtifactBuilder::ShardArtifactBuilder(ShardArtifactBuilder&&) noexcept =
    default;

std::optional<size_t> ShardArtifactBuilder::OfferRecord(
    std::string_view record) {
  Impl& im = *impl_;
  const uint64_t pos = im.tuples.seen();  // local position of this row
  // The pair side draws before the tuple side reads its planned skip,
  // the order the two sides have always drawn in; neither draw depends
  // on the record, so encoding only kept records samples the same rows.
  const bool pair_keeps = im.pairs != nullptr && im.pairs->Offer();
  const bool tuple_keeps = im.tuples.NextIsKept();
  if (!pair_keeps && !tuple_keeps) {
    // Neither side keeps it: check its width, never split or encode it.
    const size_t width = CountCsvFields(record, im.csv, &im.splitter);
    if (width != im.schema.num_attributes()) return width;
    im.tuples.SkipNext();
    return std::nullopt;
  }
  std::span<const std::string_view> fields = im.splitter.Split(record);
  if (fields.size() != im.schema.num_attributes()) return fields.size();
  auto& [row, row_pos] = im.offered;
  row.clear();
  for (size_t j = 0; j < fields.size(); ++j) {
    const size_t before = im.dicts[j]->size();
    row.push_back(im.dicts[j]->GetOrAdd(fields[j]));
    if (im.dicts[j]->size() != before) {
      im.dict_bytes += fields[j].size() + 2 * sizeof(void*);
    }
  }
  row_pos = pos;
  if (pair_keeps) im.pairs->Retain(row);
  if (tuple_keeps) {
    im.tuples.Offer(im.offered);
  } else {
    im.tuples.SkipNext();
  }
  return std::nullopt;
}

uint64_t ShardArtifactBuilder::rows_seen() const {
  return impl_->tuples.seen();
}

uint64_t ShardArtifactBuilder::RetainedBytes() const {
  const Impl& im = *impl_;
  uint64_t rows = im.tuples.items().size();
  if (im.pairs != nullptr) rows += im.pairs->retained();
  return rows * im.schema.num_attributes() * sizeof(ValueCode) +
         im.dict_bytes;
}

Result<ShardFilterArtifact> ShardArtifactBuilder::Finish() && {
  Impl& im = *impl_;
  uint64_t seen = im.tuples.seen();
  if (seen < 2) return Status::InvalidArgument("need at least two rows");
  if (im.first_row + seen > static_cast<uint64_t>(~RowIndex{0})) {
    return Status::InvalidArgument("shard rows exceed RowIndex range");
  }
  ShardFilterArtifact artifact;
  artifact.shard_index = im.shard_index;
  artifact.first_row = im.first_row;
  artifact.rows_seen = seen;
  artifact.backend = im.backend;

  std::vector<std::vector<ValueCode>> sample_rows;
  sample_rows.reserve(im.tuples.items().size());
  artifact.provenance.reserve(im.tuples.items().size());
  for (auto& [codes, pos] : std::move(im.tuples).TakeItems()) {
    sample_rows.push_back(std::move(codes));
    artifact.provenance.push_back(
        static_cast<RowIndex>(im.first_row + pos));
  }
  // Cardinality = dictionary size, so every code validates.
  std::vector<uint32_t> cardinalities;
  for (const auto& dict : im.dicts) {
    cardinalities.push_back(
        std::max<uint32_t>(1, static_cast<uint32_t>(dict->size())));
  }
  artifact.tuple_sample =
      RowsToDataset(im.schema, cardinalities, sample_rows, im.dicts);
  if (im.pairs != nullptr) {
    artifact.pair_table = ColumnsToDataset(
        im.schema, cardinalities, std::move(*im.pairs).TakeColumns(),
        im.dicts);
  }
  return artifact;
}

// ---------------------------------------------------------------------------
// In-memory construction

Result<std::vector<ShardFilterArtifact>> BuildShardArtifacts(
    const Dataset& dataset, const ShardedBuildOptions& options) {
  const uint64_t n = dataset.num_rows();
  if (n < 2) return Status::InvalidArgument("need at least two rows");
  size_t threads = ResolveThreads(options.num_threads);
  size_t shards = options.num_shards > 0 ? options.num_shards : threads;
  shards = static_cast<size_t>(
      std::min<uint64_t>(shards, std::max<uint64_t>(1, n / 2)));
  uint64_t r = 0, s = 0;
  ResolveShardSampleSizes(
      options, static_cast<uint32_t>(dataset.num_attributes()), &r, &s);

  // Per-shard seeds drawn up front: deterministic at any thread count.
  Rng seeder(options.seed);
  std::vector<uint64_t> seeds(shards);
  for (auto& seed : seeds) seed = seeder.Next();

  std::vector<ShardFilterArtifact> artifacts(shards);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && shards > 1) pool = std::make_unique<ThreadPool>(threads);
  ThreadPool::ParallelFor(pool.get(), shards, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Sample the row range [lo, hi) in place — no chunk copy.
      // (Nothing here is fallible: ranges hold >= 2 rows by the shard
      // clamp above, and sampling cannot fail.)
      const uint64_t lo = n * i / shards;
      const uint64_t range_n = n * (i + 1) / shards - lo;
      Rng rng(seeds[i]);
      artifacts[i] =
          SampleRowRange(dataset, lo, range_n, options.backend, r, s, &rng);
      artifacts[i].shard_index = static_cast<uint32_t>(i);
    }
  });
  return artifacts;
}

// ---------------------------------------------------------------------------
// CSV construction

Result<std::vector<ShardFilterArtifact>> BuildShardArtifactsFromCsv(
    const std::string& path, const ShardedBuildOptions& options) {
  size_t threads = ResolveThreads(options.num_threads);
  size_t shards = options.num_shards > 0 ? options.num_shards : threads;
  // Planning and every range walk read this one text: a FIFO is read once.
  Result<FileText> file = FileText::Open(path, "cannot open: ");
  if (!file.ok()) return file.status();
  Result<CsvShardPlan> plan = PlanCsvShards(file->view(), shards, options.csv);
  if (!plan.ok()) return plan.status();
  if (plan->total_rows < 2) {
    return Status::InvalidArgument("need at least two rows");
  }
  uint64_t r = 0, s = 0;
  ResolveShardSampleSizes(
      options, static_cast<uint32_t>(plan->attribute_names.size()), &r, &s);

  const size_t actual = plan->ranges.size();
  Rng seeder(options.seed);
  std::vector<uint64_t> seeds(actual);
  for (auto& seed : seeds) seed = seeder.Next();

  std::vector<ShardFilterArtifact> artifacts(actual);
  std::vector<Status> statuses(actual);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && actual > 1) pool = std::make_unique<ThreadPool>(threads);
  ThreadPool::ParallelFor(pool.get(), actual, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const ShardRange& range = plan->ranges[i];
      ShardArtifactBuilder builder(plan->attribute_names, options.csv,
                                   options.backend, r, s,
                                   static_cast<uint32_t>(i), range.first_row,
                                   seeds[i]);
      Status st = ForEachCsvRecordInRange(
          file->view(), range, options.csv,
          [&](std::string_view record) -> Status {
            const std::optional<size_t> width = builder.OfferRecord(record);
            if (!width.has_value()) return Status::OK();
            return CsvWidthError(
                CsvRecordNumber(file->view(), record.data(), options.csv),
                *width, plan->attribute_names.size());
          });
      if (st.ok()) {
        Result<ShardFilterArtifact> built = std::move(builder).Finish();
        if (built.ok()) {
          artifacts[i] = std::move(built).ValueOrDie();
        } else {
          st = built.status();
        }
      }
      statuses[i] = st;
    }
  });
  for (const Status& st : statuses) QIKEY_RETURN_NOT_OK(st);
  return artifacts;
}

Result<ShardFilterArtifact> StreamCsvShardArtifact(
    const std::string& path, const ShardedBuildOptions& options,
    uint64_t* peak_tracked_bytes) {
  std::ifstream in;
  QIKEY_RETURN_NOT_OK(OpenCsvStream(path, &in));
  return internal::StreamCsvShardArtifact(in, options, peak_tracked_bytes);
}

Result<ShardFilterArtifact> internal::StreamCsvShardArtifact(
    std::istream& in, const ShardedBuildOptions& options,
    uint64_t* peak_tracked_bytes) {
  std::optional<ShardArtifactBuilder> builder;
  CsvFieldSplitter splitter(options.csv);
  uint64_t peak = 0;
  uint64_t record_number = 0;  // counting blank records and the header
  size_t num_attributes = 0;
  Status inner = Status::OK();
  Status walk = WalkCsvRecords(
      in, options.csv, [&](const CsvRecord& record, size_t buffer_bytes) {
        ++record_number;
        if (record.blank) return true;
        if (!builder.has_value()) {
          std::vector<std::string> names =
              CsvAttributeNames(splitter.Split(record.text), options.csv);
          num_attributes = names.size();
          uint64_t r = 0, s = 0;
          ResolveShardSampleSizes(options,
                                  static_cast<uint32_t>(names.size()), &r, &s);
          // The one-shard build's seed: `BuildShardArtifactsFromCsv`
          // gives shard i the seeder's (i + 1)-th draw.
          builder.emplace(std::move(names), options.csv, options.backend, r,
                          s, /*shard_index=*/0, /*first_row=*/0,
                          Rng(options.seed).Next());
          if (options.csv.has_header) return true;
        }
        if (std::optional<size_t> width = builder->OfferRecord(record.text)) {
          inner = CsvWidthError(record_number, *width, num_attributes);
        }
        const uint64_t tracked = buffer_bytes + builder->RetainedBytes();
        peak = std::max(peak, tracked);
        if (inner.ok() && options.memory_budget_bytes > 0 &&
            tracked > options.memory_budget_bytes) {
          inner = Status::OutOfRange(
              "streaming shard build exceeded the memory budget");
        }
        return inner.ok();
      });
  QIKEY_RETURN_NOT_OK(walk);
  QIKEY_RETURN_NOT_OK(inner);
  if (!builder.has_value()) {
    return Status::InvalidArgument("need at least two rows");
  }
  if (peak_tracked_bytes != nullptr) *peak_tracked_bytes = peak;
  return std::move(*builder).Finish();
}

}  // namespace qikey
