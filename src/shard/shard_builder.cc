#include "shard/shard_builder.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "core/sample_bounds.h"
#include "data/dataset_builder.h"
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

/// Fields in `record`. A quote-free record is not split: it has one
/// field more than it has delimiters.
size_t CountCsvFields(std::string_view record, const CsvOptions& options,
                      CsvFieldSplitter* splitter) {
  if (record.find(options.quote) != std::string_view::npos) {
    return splitter->Split(record).size();
  }
  return 1 + static_cast<size_t>(
                 std::count(record.begin(), record.end(), options.delimiter));
}

}  // namespace

void ResolveShardSampleSizes(const ShardedBuildOptions& options, uint32_t m,
                             uint64_t* tuple_sample_size,
                             uint64_t* pair_slots) {
  *tuple_sample_size =
      ResolveTupleSampleSize(options.tuple_sample_size, m, options.eps);
  *pair_slots = options.pair_slots > 0 ? options.pair_slots
                                       : MxPairSampleSizePaper(m, options.eps);
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

Status ShardArtifactBuilder::OfferRecord(std::string_view record) {
  Impl& im = *impl_;
  const uint64_t pos = im.tuples.seen();  // local position of this row
  // The pair side draws before the tuple side reads its planned skip,
  // the order the two sides have always drawn in; neither draw depends
  // on the record, so encoding only kept records samples the same rows.
  const bool pair_keeps = im.pairs != nullptr && im.pairs->Offer();
  const bool tuple_keeps = im.tuples.NextIsKept();
  if (!pair_keeps && !tuple_keeps) {
    // Neither side keeps it: check its width, never split or encode it.
    if (CountCsvFields(record, im.csv, &im.splitter) !=
        im.schema.num_attributes()) {
      return Status::InvalidArgument("row arity mismatch in shard");
    }
    im.tuples.SkipNext();
    return Status::OK();
  }
  std::span<const std::string_view> fields = im.splitter.Split(record);
  if (fields.size() != im.schema.num_attributes()) {
    return Status::InvalidArgument("row arity mismatch in shard");
  }
  auto& [row, row_pos] = im.offered;
  row.clear();
  for (size_t j = 0; j < fields.size(); ++j) {
    row.push_back(im.dicts[j]->GetOrAdd(fields[j]));
  }
  row_pos = pos;
  if (pair_keeps) im.pairs->Retain(row);
  if (tuple_keeps) {
    im.tuples.Offer(im.offered);
  } else {
    im.tuples.SkipNext();
  }
  return Status::OK();
}

uint64_t ShardArtifactBuilder::rows_seen() const {
  return impl_->tuples.seen();
}

Result<ShardFilterArtifact> ShardArtifactBuilder::Finish() && {
  Impl& im = *impl_;
  uint64_t seen = im.tuples.seen();
  if (seen < 2) {
    return Status::InvalidArgument("shard has fewer than two rows");
  }
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
    artifact.pair_table = RowsToDataset(
        im.schema, cardinalities, std::move(*im.pairs).TakeRows(), im.dicts);
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

Result<ShardFilterArtifact> BuildArtifactFromChunk(
    const Dataset& chunk, uint64_t first_row, uint32_t shard_index,
    FilterBackend backend, uint64_t tuple_sample_size, uint64_t pair_slots,
    Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const uint64_t n = chunk.num_rows();
  if (n < 2) return Status::InvalidArgument("shard has fewer than two rows");
  if (first_row + n > static_cast<uint64_t>(~RowIndex{0})) {
    return Status::InvalidArgument("shard rows exceed RowIndex range");
  }
  if (tuple_sample_size == 0) {
    return Status::InvalidArgument("tuple sample size must be positive");
  }
  if (backend == FilterBackend::kBitset && pair_slots == 0) {
    return Status::InvalidArgument("pair slot count must be positive");
  }
  ShardFilterArtifact artifact = SampleRowRange(
      chunk, 0, n, backend, tuple_sample_size, pair_slots, rng);
  artifact.shard_index = shard_index;
  artifact.first_row = first_row;
  for (RowIndex& row : artifact.provenance) {
    row = static_cast<RowIndex>(first_row + row);
  }
  return artifact;
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
    return Status::InvalidArgument("CSV has fewer than two data rows");
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
          file->view(), range, options.csv, [&](std::string_view record) {
            return builder.OfferRecord(record);
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

Result<ShardedIngestStats> StreamCsvShardArtifacts(
    const std::string& path, const ShardedBuildOptions& options,
    const std::function<Status(ShardFilterArtifact)>& consumer,
    const std::function<uint64_t()>& consumer_tracked) {
  ShardedLoaderOptions loader_options;
  loader_options.shard_rows = options.shard_rows;
  loader_options.memory_budget_bytes = options.memory_budget_bytes;
  loader_options.csv = options.csv;
  ShardedLoader loader(loader_options);

  Rng seeder(options.seed);
  uint64_t r = 0, s = 0;
  bool resolved = false;
  Status inner = Status::OK();
  Result<ShardedIngestStats> stats = loader.Load(
      path,
      [&](ShardInput chunk) -> Status {
        if (!resolved) {
          ResolveShardSampleSizes(
              options, static_cast<uint32_t>(chunk.rows.num_attributes()),
              &r, &s);
          resolved = true;
        }
        Rng rng(seeder.Next());
        Result<ShardFilterArtifact> built = BuildArtifactFromChunk(
            chunk.rows, chunk.first_row, chunk.shard_index, options.backend,
            r, s, &rng);
        if (!built.ok()) {
          inner = built.status();
          return inner;
        }
        return consumer(std::move(built).ValueOrDie());
      },
      consumer_tracked);
  if (!stats.ok() && !inner.ok()) return inner;
  return stats;
}

}  // namespace qikey
