#include "engine/pipeline.h"

#include <algorithm>
#include <cstdio>

#include "core/bitset_filter.h"
#include "core/sample_bounds.h"
#include "shard/filter_merger.h"
#include "shard/shard_builder.h"
#include "stream/tuple_sample.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qikey {

namespace {

Status ValidateOptions(const PipelineOptions& options) {
  QIKEY_RETURN_NOT_OK(ValidateEps(options.eps));
  return Status::OK();
}

/// True iff `key` separates every pair of `sample` (sort-based
/// duplicate scan, `O(r log r · |key|)`).
bool KeySeparatesSample(const Dataset& sample, const AttributeSet& key) {
  std::vector<AttributeIndex> idx = key.ToIndices();
  std::vector<RowIndex> order(sample.num_rows());
  for (RowIndex i = 0; i < sample.num_rows(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](RowIndex a, RowIndex b) {
    return sample.CompareProjections(a, b, idx) < 0;
  });
  for (size_t i = 1; i < order.size(); ++i) {
    if (sample.CompareProjections(order[i - 1], order[i], idx) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<PipelineResult> DiscoveryPipeline::Run(const Dataset& dataset,
                                              Rng* rng) const {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows");
  }
  QIKEY_RETURN_NOT_OK(ValidateOptions(options_));

  Timer timer;
  uint64_t r = ResolveTupleSampleSize(options_.sample_size,
                                      dataset.num_attributes(), options_.eps);
  TupleSample drawn = DrawTupleSample(dataset, 0, dataset.num_rows(), r, rng);
  auto sample = std::make_shared<Dataset>(std::move(drawn.sample));
  double sample_millis = timer.ElapsedMillis();

  Result<PipelineResult> result =
      RunStages(&dataset, std::move(sample), std::move(drawn.provenance), rng);
  if (!result.ok()) return result;
  result->rows = dataset.num_rows();
  result->stages.insert(result->stages.begin(),
                        PipelineStage{"sample", sample_millis});
  result->total_millis += sample_millis;
  return result;
}

Result<PipelineResult> DiscoveryPipeline::RunOnReservoir(
    const Dataset& sample, std::vector<RowIndex> provenance) const {
  if (sample.num_rows() < 2) {
    return Status::InvalidArgument("reservoir needs at least two rows");
  }
  if (!provenance.empty() && provenance.size() != sample.num_rows()) {
    return Status::InvalidArgument(
        "provenance must be empty or match the sample row count");
  }
  if (options_.backend == FilterBackend::kBitset) {
    return Status::InvalidArgument(
        "the reservoir entry point supports only the tuple-sample backend "
        "(the bitset backend samples pairs the reservoir cannot provide)");
  }
  QIKEY_RETURN_NOT_OK(ValidateOptions(options_));
  Result<PipelineResult> result = RunStages(
      nullptr, std::make_shared<Dataset>(sample), std::move(provenance),
      nullptr);
  if (!result.ok()) return result;
  result->rows = sample.num_rows();
  return result;
}

Result<std::unique_ptr<KeyMonitor>> DiscoveryPipeline::RunIncremental(
    const Dataset& initial, uint32_t max_key_size, uint64_t seed) const {
  QIKEY_RETURN_NOT_OK(ValidateOptions(options_));
  MonitorOptions monitor_options;
  monitor_options.eps = options_.eps;
  monitor_options.backend = options_.backend;
  monitor_options.max_key_size = max_key_size;
  monitor_options.sample_size = options_.sample_size;
  monitor_options.pair_sample_size = options_.pair_sample_size;
  monitor_options.num_threads = ResolveThreads(options_.num_threads);
  Result<std::unique_ptr<KeyMonitor>> monitor =
      KeyMonitor::Make(initial.schema(), monitor_options, seed);
  if (!monitor.ok()) return monitor.status();
  QIKEY_RETURN_NOT_OK((*monitor)->InsertDataset(initial));
  return monitor;
}

namespace {

/// The shard-construction options implied by the pipeline's own.
/// Callers fill in the run-specific fields (shard count, seed, CSV).
ShardedBuildOptions MakeShardBuildOptions(const PipelineOptions& options) {
  ShardedBuildOptions build;
  build.backend = options.backend;
  build.eps = options.eps;
  build.tuple_sample_size = options.sample_size;
  build.pair_slots = options.pair_sample_size;
  build.num_threads = ResolveThreads(options.num_threads);
  return build;
}

/// The merge of shard artifacts over `m` attributes that the pipeline's
/// options imply.
FilterMerger::Options MakeMergerOptions(const PipelineOptions& options,
                                        size_t m, uint64_t seed) {
  FilterMerger::Options merge;
  merge.backend = options.backend;
  merge.tuple_sample_size =
      ResolveTupleSampleSize(options.sample_size, m, options.eps);
  merge.detection = options.detection;
  merge.seed = seed;
  return merge;
}

/// Turns a finished merge into the pipeline tail's inputs (moving out of
/// `merged`): the shared greedy sample and the verdict filter.
struct MergedInputs {
  std::shared_ptr<Dataset> sample;
  std::unique_ptr<SeparationFilter> filter;
  uint64_t total_rows = 0;
  uint32_t num_shards = 0;
};

Result<MergedInputs> TakeMergedInputs(MergedFilter& merged) {
  MergedInputs inputs;
  inputs.sample = merged.tuple_filter->shared_sample();
  inputs.total_rows = merged.total_rows;
  inputs.num_shards = merged.num_shards;
  if (merged.backend == FilterBackend::kBitset) {
    // The merged pair slots become the packed evidence; the merged
    // tuple sample still feeds the greedy stage.
    Result<BitsetSeparationFilter> packed =
        BitsetSeparationFilter::FromMaterializedPairs(merged.pair_table);
    if (!packed.ok()) return packed.status();
    inputs.filter = std::make_unique<BitsetSeparationFilter>(
        std::move(packed).ValueOrDie());
  } else {
    inputs.filter =
        std::make_unique<TupleSampleFilter>(std::move(*merged.tuple_filter));
  }
  return inputs;
}

/// `RunOnShardArtifacts` on a shard build's artifacts, with the build's
/// time and bytes added to the stages and the peak.
Result<PipelineResult> RunOnBuiltArtifacts(
    const DiscoveryPipeline& pipeline,
    Result<std::vector<ShardFilterArtifact>> artifacts, double build_millis,
    uint64_t merge_seed) {
  if (!artifacts.ok()) return artifacts.status();
  uint64_t artifact_bytes = 0;
  for (const ShardFilterArtifact& a : *artifacts) {
    artifact_bytes += a.MemoryBytes();
  }
  Result<PipelineResult> result = pipeline.RunOnShardArtifacts(
      std::move(artifacts).ValueOrDie(), merge_seed);
  if (!result.ok()) return result;
  result->stages.insert(result->stages.begin(),
                        PipelineStage{"shard-build", build_millis});
  result->total_millis += build_millis;
  result->peak_tracked_bytes = artifact_bytes + result->filter_bytes;
  return result;
}

}  // namespace

Result<PipelineResult> DiscoveryPipeline::RunSharded(
    const Dataset& dataset, const ShardedRunOptions& sharded,
    uint64_t seed) const {
  QIKEY_RETURN_NOT_OK(ValidateOptions(options_));
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows");
  }
  Rng seeder(seed);
  ShardedBuildOptions build = MakeShardBuildOptions(options_);
  build.num_shards = sharded.num_shards;
  build.seed = seeder.Next();
  uint64_t merge_seed = seeder.Next();

  Timer timer;
  Result<std::vector<ShardFilterArtifact>> artifacts =
      BuildShardArtifacts(dataset, build);
  return RunOnBuiltArtifacts(*this, std::move(artifacts),
                             timer.ElapsedMillis(), merge_seed);
}

Result<PipelineResult> DiscoveryPipeline::RunSharded(
    const std::string& csv_path, const ShardedRunOptions& sharded,
    uint64_t seed) const {
  QIKEY_RETURN_NOT_OK(ValidateOptions(options_));
  Rng seeder(seed);
  ShardedBuildOptions build = MakeShardBuildOptions(options_);
  build.num_shards = sharded.num_shards;
  build.seed = seeder.Next();
  build.csv = sharded.csv;
  build.memory_budget_bytes = sharded.memory_budget_bytes;
  uint64_t merge_seed = seeder.Next();

  Timer timer;
  if (sharded.memory_budget_bytes == 0) {
    // Scale-out mode: parallel byte-range ingest, then central merge.
    Result<std::vector<ShardFilterArtifact>> artifacts =
        BuildShardArtifactsFromCsv(csv_path, build);
    return RunOnBuiltArtifacts(*this, std::move(artifacts),
                               timer.ElapsedMillis(), merge_seed);
  }
  // Out-of-core mode: one streaming builder over the whole file, within
  // the budget; the peak reported is the one the budget bounds.
  uint64_t peak = 0;
  Result<ShardFilterArtifact> artifact =
      StreamCsvShardArtifact(csv_path, build, &peak);
  if (!artifact.ok()) return artifact.status();
  std::vector<ShardFilterArtifact> artifacts;
  artifacts.push_back(std::move(artifact).ValueOrDie());
  Result<PipelineResult> result = RunOnBuiltArtifacts(
      *this, std::move(artifacts), timer.ElapsedMillis(), merge_seed);
  if (result.ok()) result->peak_tracked_bytes = peak;
  return result;
}

Result<PipelineResult> DiscoveryPipeline::RunOnShardArtifacts(
    std::vector<ShardFilterArtifact> artifacts, uint64_t seed) const {
  QIKEY_RETURN_NOT_OK(ValidateOptions(options_));
  if (artifacts.empty()) {
    return Status::InvalidArgument("no shard artifacts");
  }
  Timer timer;
  FilterMerger merger(MakeMergerOptions(
      options_, artifacts[0].tuple_sample.num_attributes(), seed));
  for (ShardFilterArtifact& artifact : artifacts) {
    QIKEY_RETURN_NOT_OK(merger.Add(std::move(artifact)));
  }
  Result<MergedFilter> merged = std::move(merger).Finish();
  if (!merged.ok()) return merged.status();
  double merge_millis = timer.ElapsedMillis();

  Result<MergedInputs> inputs = TakeMergedInputs(*merged);
  if (!inputs.ok()) return inputs.status();
  Result<PipelineResult> result = FinishStages(
      std::move(inputs->sample), std::move(inputs->filter), 0.0);
  if (!result.ok()) return result;
  result->rows = inputs->total_rows;
  result->num_shards = inputs->num_shards;
  result->stages.insert(result->stages.begin(),
                        PipelineStage{"merge", merge_millis});
  result->total_millis += merge_millis;
  return result;
}

Result<PipelineResult> DiscoveryPipeline::RunStages(
    const Dataset* full, std::shared_ptr<Dataset> sample,
    std::vector<RowIndex> provenance, Rng* rng) const {
  // Stage: filter. The tuple backend reuses the greedy sample (the
  // filter IS its sample); the bitset backend draws an independent
  // pair sample from the full table, making the verify stage a genuine
  // cross-check.
  Timer timer;
  std::unique_ptr<SeparationFilter> filter;
  switch (options_.backend) {
    case FilterBackend::kTupleSample: {
      filter =
          std::make_unique<TupleSampleFilter>(TupleSampleFilter::FromSample(
              sample, std::move(provenance), options_.detection));
      break;
    }
    case FilterBackend::kBitset: {
      if (full == nullptr) {
        return Status::InvalidArgument(
            "bitset backend needs the full data set to sample pairs");
      }
      BitsetFilterOptions bitset;
      bitset.eps = options_.eps;
      bitset.sample_size = options_.pair_sample_size;
      Result<BitsetSeparationFilter> built =
          BitsetSeparationFilter::Build(*full, bitset, rng);
      if (!built.ok()) return built.status();
      filter = std::make_unique<BitsetSeparationFilter>(
          std::move(built).ValueOrDie());
      break;
    }
  }
  return FinishStages(std::move(sample), std::move(filter),
                      timer.ElapsedMillis());
}

Result<PipelineResult> DiscoveryPipeline::FinishStages(
    std::shared_ptr<Dataset> sample, std::unique_ptr<SeparationFilter> filter,
    double filter_millis) const {
  PipelineResult out;
  out.attributes = sample->num_attributes();
  out.tuple_sample_size = sample->num_rows();

  size_t threads = ResolveThreads(options_.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  out.filter_sample_size = filter->sample_size();
  out.filter_bytes = filter->MemoryBytes();
  out.stages.emplace_back("filter", filter_millis);
  Timer timer;

  // Stage: greedy set cover on (R choose 2) by partition refinement.
  timer.Restart();
  RefineEngine engine(*sample, options_.gain_strategy);
  engine.set_thread_pool(pool.get());
  RefineEngine::GreedyResult greedy =
      engine.RunGreedy(options_.max_attributes);
  out.key = std::move(greedy.chosen);
  out.covered_sample = greedy.is_sample_key;
  out.steps = std::move(greedy.steps);
  out.stages.emplace_back("greedy", timer.ElapsedMillis());

  // Stage: minimize. Greedy can leave an early pick redundant once
  // later attributes are in. Rejection is monotone under removal (a
  // pair agreeing on K\{a} agrees on any subset of it), so one batched
  // round over all single drops pins the never-removable members, and
  // one forward pass over the accepted ones finishes the job in O(k)
  // queries total.
  timer.Restart();
  if (options_.minimize && out.key.size() > 1) {
    std::vector<AttributeIndex> members = out.key.ToIndices();
    std::vector<AttributeSet> candidates;
    candidates.reserve(members.size());
    for (AttributeIndex a : members) {
      AttributeSet candidate = out.key;
      candidate.Remove(a);
      candidates.push_back(std::move(candidate));
    }
    std::vector<FilterVerdict> verdicts =
        filter->QueryBatch(candidates, pool.get());
    bool key_changed = false;
    for (size_t i = 0; i < members.size() && out.key.size() > 1; ++i) {
      if (verdicts[i] == FilterVerdict::kReject) continue;
      AttributeSet candidate = out.key;
      candidate.Remove(members[i]);
      // The batch verdict was against the pre-drop key; once the key
      // shrank, the smaller candidate needs a fresh query.
      if (key_changed &&
          filter->Query(candidate) != FilterVerdict::kAccept) {
        continue;
      }
      out.key = std::move(candidate);
      ++out.pruned_attributes;
      key_changed = true;
    }
    // The bitset pair sample is independent of the greedy tuple
    // sample, so a drop it accepts may uncover a sample pair; keep
    // `covered_sample` honest by re-checking against the sample.
    if (options_.backend == FilterBackend::kBitset && key_changed &&
        out.covered_sample) {
      out.covered_sample = KeySeparatesSample(*sample, out.key);
    }
  }
  out.stages.emplace_back("minimize", timer.ElapsedMillis());

  // Stage: verify the emitted key and surface a witness on rejection.
  timer.Restart();
  out.verdict = filter->Query(out.key);
  if (out.verdict == FilterVerdict::kReject) {
    out.witness = filter->QueryWitness(out.key);
  }
  out.stages.emplace_back("verify", timer.ElapsedMillis());

  for (const PipelineStage& s : out.stages) out.total_millis += s.millis;
  out.filter = std::move(filter);
  out.sample = std::move(sample);
  return out;
}

std::string PipelineResult::Report(const Schema* schema) const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "discovery: %llu rows x %llu attributes\n",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(attributes));
  out += line;
  std::snprintf(line, sizeof(line),
                "  key: %zu attribute(s), %u pruned by minimization\n",
                key.size(), pruned_attributes);
  out += line;
  out += "    " + key.ToString(schema) + "\n";
  std::snprintf(line, sizeof(line),
                "  verify: %s (sample covered: %s)\n",
                verdict == FilterVerdict::kAccept ? "ACCEPT" : "REJECT",
                covered_sample ? "yes" : "no");
  out += line;
  if (witness.has_value()) {
    std::snprintf(line, sizeof(line),
                  "  witness: rows %u and %u agree on the key\n",
                  witness->first, witness->second);
    out += line;
  }
  std::snprintf(
      line, sizeof(line),
      "  filter: %llu samples, %llu bytes; greedy sample: %llu tuples\n",
      static_cast<unsigned long long>(filter_sample_size),
      static_cast<unsigned long long>(filter_bytes),
      static_cast<unsigned long long>(tuple_sample_size));
  out += line;
  if (num_shards > 0) {
    std::snprintf(line, sizeof(line),
                  "  sharded: %llu shard(s), peak tracked %llu bytes\n",
                  static_cast<unsigned long long>(num_shards),
                  static_cast<unsigned long long>(peak_tracked_bytes));
    out += line;
  }
  out += "  stages:";
  for (const PipelineStage& s : stages) {
    std::snprintf(line, sizeof(line), " %s %.2fms |", s.name.c_str(),
                  s.millis);
    out += line;
  }
  std::snprintf(line, sizeof(line), " total %.2fms\n", total_millis);
  out += line;
  if (!steps.empty()) {
    out += "  greedy trace:";
    for (const RefineEngine::Step& s : steps) {
      // += instead of "a" + to_string: gcc 12 -Wrestrict FP (PR105651).
      std::string attr = "a";
      attr += std::to_string(s.chosen);
      if (schema != nullptr) attr = schema->name(s.chosen);
      std::snprintf(line, sizeof(line), " %s(+%llu)", attr.c_str(),
                    static_cast<unsigned long long>(s.gain));
      out += line;
    }
    out += "\n";
  }
  return out;
}

}  // namespace qikey
