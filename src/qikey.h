#ifndef QIKEY_QIKEY_H_
#define QIKEY_QIKEY_H_

/// \file qikey.h
/// \brief Umbrella header for the qikey library: quasi-identifier
/// discovery with the improved sampling bounds of
/// "Towards Better Bounds for Finding Quasi-Identifiers" (PODS 2023).
///
/// Typical usage (low-level filter API):
///
///     qikey::Rng rng(42);
///     auto dataset = qikey::LoadCsvDataset("people.csv").ValueOrDie();
///     qikey::TupleSampleFilterOptions opts{.eps = 0.001};
///     auto filter =
///         qikey::TupleSampleFilter::Build(dataset, opts, &rng).ValueOrDie();
///     qikey::AttributeSet qi = ...;
///     if (filter.Query(qi) == qikey::FilterVerdict::kReject) { ... }
///
/// Or run the whole paper workflow — sample, filter, thread-parallel
/// greedy, batched minimization, verify — through `engine/pipeline.h`:
///
///     qikey::PipelineOptions popts;
///     popts.eps = 0.001;
///     popts.num_threads = 0;  // one worker per hardware thread
///     auto report = qikey::DiscoveryPipeline(popts).Run(dataset, &rng);
///
/// Batched candidate evaluation (`SeparationFilter::QueryBatch`,
/// `EnumerateMinimalAcceptedSets`) fans filter queries out over a
/// `ThreadPool` with answers identical to one `Query` per set.

#include "core/afd.h"
#include "core/anonymity.h"
#include "core/attribute_set.h"
#include "core/bitset_filter.h"
#include "core/bruteforce.h"
#include "core/evidence_block.h"
#include "core/filter.h"
#include "core/generalization.h"
#include "core/key_enumeration.h"
#include "core/masking.h"
#include "core/minkey.h"
#include "core/refine_engine.h"
#include "core/sample_bounds.h"
#include "core/separation.h"
#include "core/sketch.h"
#include "core/theory.h"
#include "core/tuple_sample_filter.h"
#include "data/concat.h"
#include "data/csv_loader.h"
#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/generators/encoding_lb.h"
#include "data/generators/planted_clique.h"
#include "data/generators/tabular.h"
#include "data/generators/uniform_grid.h"
#include "data/hierarchy.h"
#include "data/partition.h"
#include "data/serialize.h"
#include "data/statistics.h"
#include "engine/pipeline.h"
#include "math/birthday.h"
#include "math/chernoff.h"
#include "math/collision.h"
#include "math/combinatorics.h"
#include "math/kkt.h"
#include "math/sympoly.h"
#include "monitor/incremental_filter.h"
#include "monitor/key_monitor.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "serve/conn.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/verdict_cache.h"
#include "setcover/set_cover.h"
#include "shard/filter_merger.h"
#include "shard/shard_artifact.h"
#include "shard/shard_builder.h"
#include "shard/sharded_loader.h"
#include "stream/pair_slots.h"
#include "stream/reservoir.h"
#include "stream/stream_builder.h"
#include "stream/tuple_sample.h"
#include "util/csv.h"
#include "util/jsonw.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#endif  // QIKEY_QIKEY_H_
