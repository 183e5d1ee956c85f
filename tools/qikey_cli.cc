// qikey — command-line front end for the library.
//
// Usage:
//   qikey profile <csv>
//       Per-column statistics (distinct counts, entropy, separation).
//   qikey minkey <csv> [--eps E]
//       Approximate minimum eps-separation key (Proposition 1).
//   qikey keys <csv> [--eps E] [--max-size K]
//       All minimal eps-keys (UCC enumeration) up to size K.
//   qikey audit <csv> [--eps E] [--max-size K]
//       Quasi-identifier risk report (k-anonymity, uniqueness).
//   qikey query <csv> --attrs a,b,c [--eps E]
//       eps-separation key filter verdict + exact ground truth.
//   qikey query <csv> --requests file.txt [--threads N] [--cache C]
//                [--eps E] [--backend tuple|bitset] [--wire]
//                [--stats]
//       Batch serve executor: run discovery once, publish the result as
//       an immutable snapshot, and answer every request in the file
//       through the serve-layer QueryEngine (LRU verdict cache of C
//       entries in total; 0 disables). --threads N splits the file into
//       N contiguous chunks, each answered as one batch by its own
//       engine, whose cache holds C/N entries (one more for the first
//       C%N chunks). Request grammar (one per line; '#' comments):
//       is-key a,b | separation a,b | min-key | afd a,b -> c
//       | anonymity a,b [k]. With --wire, print exactly one QIKEY/1 wire
//       line per request (the same encoder the network server uses) and
//       nothing else — byte-diffable against a served session, and the
//       same bytes at any N. Without --wire, the "(cached)" marks and
//       the hit/miss totals depend on N: a repeated set hits only when
//       its own chunk answered it before. With --stats, one final line
//       with the engines' metrics, summed, as JSON (same schema as the
//       server's `stats` verb).
//   qikey serve <csv-or-artifacts> [--listen H:P]
//               [--snapshot-from run|monitor|artifacts]
//               [--snapshot-file FILE]
//               [--max-conns N] [--queue-depth N] [--idle-timeout MS]
//               [--eps E] [--backend B] [--threads T] [--cache C]
//               [--seed S] [--max-size K] [--window W]
//               [--stats-interval-sec N] [--trace-sample N] [--log-json]
//       Long-running network server speaking the newline-delimited
//       QIKEY/1 protocol (see src/serve/protocol.h). Builds one serving
//       snapshot from the positional input (--snapshot-from artifacts
//       treats it as a comma-separated shard-artifact list), publishes
//       it, prints "listening on <host>:<port>" (port 0 binds an
//       ephemeral port), and serves until SIGTERM/SIGINT (graceful
//       drain). SIGHUP rebuilds the snapshot from the same source and
//       hot-swaps it without dropping connections. With
//       --snapshot-file FILE (instead of a positional input) the
//       snapshot is mapped from a QSNP1 artifact written by `snapshot
//       save` — serving starts without re-running discovery, and SIGHUP
//       re-reads the file. SIGUSR1 (or
//       --stats-interval-sec N, periodically) dumps one JSON stats
//       line to stderr; --trace-sample N (also accepted as "1/N")
//       emits a per-stage timing trace for every Nth request;
//       --log-json switches log output to JSON lines. --threads sizes
//       only the discovery run that builds the snapshot; requests are
//       answered on one shard thread per CPU, each with its own engine
//       and a 1/N share of the --cache total, so a repeated set hits
//       only on the loop its connection landed on.
//   qikey snapshot save <csv-or-artifacts> --out FILE
//                 [--snapshot-from run|monitor|artifacts] [--eps E]
//                 [--backend B] [--threads T] [--seed S] [--max-size K]
//                 [--window W]
//       Build one serving snapshot (same sources as `serve`) and freeze
//       it into a QSNP1 snapshot artifact at FILE — a checksummed,
//       64-byte-aligned image that `serve --snapshot-file` maps and
//       serves zero-copy (see docs/architecture.md).
//   qikey snapshot inspect <file>
//       Validate FILE's header, section table, and checksums, and print
//       them as one sorted-key JSON object. Exit 2 if malformed. Images
//       saved with the retired mx-pair backend report backend "mx" and
//       load (and serve) as bitset.
//   qikey mask <csv> [--eps E]
//       Attributes to suppress so no quasi-identifier remains.
//   qikey afd <csv> --rhs col [--error E] [--max-size K]
//       Minimal approximate functional dependencies X -> col.
//   qikey anonymize <csv> --attrs a,b [--k K] [--suppress F]
//       Minimal generalization making the table k-anonymous w.r.t. the
//       given quasi-identifier (interval hierarchies, branching 4).
//   qikey discover <csv> [--eps E] [--backend tuple|bitset]
//                  [--threads T]
//                  [--shards N] [--memory-budget MB]
//       End-to-end discovery pipeline: sample, filter, parallel greedy,
//       batched minimization, verify with witness; per-stage timings.
//       The file is indexed and width-checked, then only the rows the
//       samples draw are encoded (sample-first; the key is the one a
//       whole-table load would give). With --shards, per-shard filters
//       are built in parallel over record-aligned byte ranges of the
//       file and merged; with
//       --memory-budget, the file is read once (a pipe works) by one
//       streaming builder that encodes only the rows its samples keep,
//       and the run fails if its live bytes exceed MB (out-of-core
//       mode).
//   qikey monitor <csv> [--eps E] [--max-size K] [--window W]
//                 [--backend tuple|bitset] [--threads T]
//       Replay the CSV as a live insert stream through the incremental
//       key monitor (optionally as a sliding window of W rows), report
//       every key-churn event and the final snapshot.
//
// All commands are deterministic for a fixed --seed (default 1),
// including discover and monitor at any --threads value.
//
// Exit codes: 0 success; 1 load/runtime error; 2 usage error;
// 3 discover verification failure (the emitted key was rejected by the
// filter), so scripts and CI can gate on it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "qikey.h"

#include "util/flag_parse.h"

#include "core/afd.h"
#include "core/anonymity.h"
#include "core/generalization.h"
#include "core/key_enumeration.h"
#include "core/masking.h"
#include "data/hierarchy.h"
#include "data/wire_codec.h"
#include "data/statistics.h"
#include "engine/pipeline.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "snapfile/snapfile.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/shutdown.h"
#include "util/thread_pool.h"

namespace qikey {
namespace {

struct Args {
  std::string command;
  std::string sub;  // `snapshot` subcommand: save | inspect
  std::string csv_path;
  double eps = 0.001;
  uint32_t max_size = 4;
  double afd_error = 0.05;
  std::string rhs;
  std::string attrs;
  uint64_t seed = 1;
  uint64_t k = 5;
  double suppress = 0.0;
  std::string backend = "tuple";
  size_t threads = 1;
  uint64_t window = 0;
  size_t shards = 0;
  double memory_budget_mb = 0.0;
  std::string requests;
  size_t cache = 4096;
  bool wire = false;
  std::string listen = "127.0.0.1:7421";
  std::string snapshot_from = "run";
  size_t max_conns = 1024;
  size_t queue_depth = 256;
  long long idle_timeout_ms = 60 * 1000;
  std::string out;
  std::string snapshot_file;
  bool stats = false;
  long long stats_interval_sec = 0;
  uint64_t trace_sample = 0;
  bool log_json = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: qikey <profile|minkey|keys|audit|query|mask|afd|"
               "anonymize|discover|monitor|serve|snapshot>\n"
               "             <csv> [--eps E] [--max-size K] [--attrs a,b,c] "
               "[--rhs col]\n"
               "             [--error E] [--seed S] [--backend "
               "tuple|bitset] [--threads T]\n"
               "             [--window W] [--shards N] [--memory-budget MB]\n"
               "             [--requests FILE] [--cache N] [--wire]\n"
               "             [--listen H:P] [--snapshot-from "
               "run|monitor|artifacts]\n"
               "             [--max-conns N] [--queue-depth N] "
               "[--idle-timeout MS]\n"
               "             [--stats] [--stats-interval-sec N] "
               "[--trace-sample N] [--log-json]\n"
               "       qikey snapshot save <input> --out FILE\n"
               "       qikey snapshot inspect <file>\n"
               "       qikey serve --snapshot-file FILE [flags]\n");
}


/// Parses the command line. Unknown flags and flags missing their value
/// print what went wrong (the caller points at Usage and exits 2) —
/// nothing is silently ignored.
bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  int flag_start = 3;
  if (args->command == "snapshot") {
    // qikey snapshot <save|inspect> <input> [flags]
    if (argc < 4) return false;
    args->sub = argv[2];
    if (args->sub != "save" && args->sub != "inspect") {
      std::fprintf(stderr, "snapshot wants save|inspect, got %s\n",
                   args->sub.c_str());
      return false;
    }
    args->csv_path = argv[3];
    flag_start = 4;
  } else if (args->command == "serve" && argc >= 3 && argv[2][0] == '-') {
    // `serve --snapshot-file FILE` has no positional input; let the
    // flag loop start right at argv[2].
    flag_start = 2;
  } else {
    if (argc < 3) return false;
    args->csv_path = argv[2];
  }
  for (int i = flag_start; i < argc; ++i) {
    std::string flag = argv[i];
    // Consumes the flag's value; diagnoses a flag at the end of the
    // line or directly followed by another flag.
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s is missing its value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    auto next_count = [&](size_t* out) -> bool {
      const char* v = next();
      if (!v) return false;
      char* end = nullptr;
      long long t = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || t < 0 || t > 1 << 22) {
        std::fprintf(stderr, "%s must be an integer in [0, %u], got %s\n",
                     flag.c_str(), 1u << 22, v);
        return false;
      }
      *out = static_cast<size_t>(t);
      return true;
    };
    long long n = 0;
    if (flag == "--eps") {
      const char* v = next();
      // `keys` runs exact UCC enumeration, which admits eps = 0; every
      // other command feeds eps into a Θ(m/ε) or Θ(m/√ε) size and must
      // reject it here (exit 2) before any sample size is computed.
      bool zero_ok = args->command == "keys";
      if (!v || !ParseDoubleFlag(flag, v, 0.0, 1.0, !zero_ok, true,
                                 zero_ok ? "[0, 1)" : "(0, 1)",
                                 &args->eps)) {
        return false;
      }
    } else if (flag == "--max-size") {
      const char* v = next();
      if (!v || !ParseIntFlag(flag, v, 1, 1 << 20, &n)) return false;
      args->max_size = static_cast<uint32_t>(n);
    } else if (flag == "--error") {
      const char* v = next();
      if (!v || !ParseDoubleFlag(flag, v, 0.0, 1.0, false, false, "[0, 1]",
                                 &args->afd_error)) {
        return false;
      }
    } else if (flag == "--rhs") {
      const char* v = next();
      if (!v) return false;
      args->rhs = v;
    } else if (flag == "--attrs") {
      const char* v = next();
      if (!v) return false;
      args->attrs = v;
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v || !ParseUint64Flag(flag, v, &args->seed)) return false;
    } else if (flag == "--k") {
      const char* v = next();
      if (!v || !ParseIntFlag(flag, v, 1, 1ll << 40, &n)) return false;
      args->k = static_cast<uint64_t>(n);
    } else if (flag == "--suppress") {
      const char* v = next();
      if (!v || !ParseDoubleFlag(flag, v, 0.0, 1.0, false, false, "[0, 1]",
                                 &args->suppress)) {
        return false;
      }
    } else if (flag == "--backend") {
      const char* v = next();
      if (!v) return false;
      args->backend = v;
    } else if (flag == "--threads") {
      const char* v = next();
      if (!v || !ParseIntFlag(flag, v, 0, 4096, &n)) return false;
      args->threads = static_cast<size_t>(n);
    } else if (flag == "--window") {
      const char* v = next();
      if (!v || !ParseIntFlag(flag, v, 0, 1ll << 40, &n)) return false;
      args->window = static_cast<uint64_t>(n);
    } else if (flag == "--shards") {
      if (!next_count(&args->shards)) return false;
    } else if (flag == "--memory-budget") {
      const char* v = next();
      if (!v || !ParseDoubleFlag(flag, v, 0.0, 1e12, false, false,
                                 "[0, 1e12] megabytes",
                                 &args->memory_budget_mb)) {
        return false;
      }
    } else if (flag == "--requests") {
      const char* v = next();
      if (!v) return false;
      args->requests = v;
    } else if (flag == "--cache") {
      if (!next_count(&args->cache)) return false;
    } else if (flag == "--wire") {
      args->wire = true;  // boolean flag: takes no value
    } else if (flag == "--listen") {
      const char* v = next();
      if (!v) return false;
      args->listen = v;
    } else if (flag == "--snapshot-from") {
      const char* v = next();
      if (!v) return false;
      if (std::strcmp(v, "run") != 0 && std::strcmp(v, "monitor") != 0 &&
          std::strcmp(v, "artifacts") != 0) {
        std::fprintf(stderr,
                     "--snapshot-from must be run|monitor|artifacts, got %s\n",
                     v);
        return false;
      }
      args->snapshot_from = v;
    } else if (flag == "--max-conns") {
      if (!next_count(&args->max_conns)) return false;
    } else if (flag == "--queue-depth") {
      if (!next_count(&args->queue_depth)) return false;
    } else if (flag == "--idle-timeout") {
      const char* v = next();
      if (!v || !ParseIntFlag(flag, v, 0, 1ll << 31, &n)) return false;
      args->idle_timeout_ms = n;
    } else if (flag == "--stats") {
      args->stats = true;  // boolean flag: takes no value
    } else if (flag == "--stats-interval-sec") {
      const char* v = next();
      if (!v || !ParseIntFlag(flag, v, 0, 1ll << 31, &n)) return false;
      args->stats_interval_sec = n;
    } else if (flag == "--trace-sample") {
      // Sample rate: every Nth request (0 disables). "1/N" is accepted
      // as an alias for N, matching the "sample 1 in N" reading.
      const char* v = next();
      if (!v) return false;
      const char* rate = (v[0] == '1' && v[1] == '/') ? v + 2 : v;
      if (!ParseUint64Flag(flag, rate, &args->trace_sample)) return false;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return false;
      args->out = v;
    } else if (flag == "--snapshot-file") {
      const char* v = next();
      if (!v) return false;
      args->snapshot_file = v;
    } else if (flag == "--log-json") {
      args->log_json = true;  // boolean flag: takes no value
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

/// Resolves --backend; false (with a message) on unknown names.
bool ParseBackend(const std::string& name, FilterBackend* backend) {
  if (name == "tuple") {
    *backend = FilterBackend::kTupleSample;
    return true;
  }
  if (name == "bitset") {
    *backend = FilterBackend::kBitset;
    return true;
  }
  std::fprintf(stderr, "unknown backend: %s (want tuple|bitset)\n",
               name.c_str());
  return false;
}

/// Resolves "a,b,c" against the schema; exits on unknown names.
AttributeSet ResolveAttrs(const Dataset& data, const std::string& spec) {
  AttributeSet out(data.num_attributes());
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string name = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!name.empty()) {
      int idx = data.schema().Find(name);
      if (idx < 0) {
        std::fprintf(stderr, "unknown attribute: %s\n", name.c_str());
        std::exit(2);
      }
      out.Add(static_cast<AttributeIndex>(idx));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int RunProfile(const Dataset& data) {
  std::printf("%zu rows x %zu attributes, %llu pairs\n\n", data.num_rows(),
              data.num_attributes(),
              static_cast<unsigned long long>(data.num_pairs()));
  std::printf("%s", FormatProfileTable(ProfileDataset(data)).c_str());
  return 0;
}

int RunMinKey(const Dataset& data, const Args& args, Rng* rng) {
  MinKeyOptions opts;
  opts.eps = args.eps;
  auto result = FindApproxMinimumEpsKey(data, opts, rng);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("approximate minimum %g-separation key: %s\n", args.eps,
              result->key.ToString(&data.schema()).c_str());
  std::printf("  sample: %llu tuples; separates %.6f%% of all pairs\n",
              static_cast<unsigned long long>(result->sample_size),
              100.0 * SeparationRatio(data, result->key));
  if (!result->covered_sample) {
    std::printf("  note: sample contained exact duplicates; no attribute "
                "set is a key of it\n");
  }
  return 0;
}

int RunKeys(const Dataset& data, const Args& args) {
  KeyEnumerationOptions opts;
  opts.eps = args.eps;
  opts.max_size = args.max_size;
  auto keys = EnumerateMinimalKeys(data, opts);
  if (!keys.ok()) {
    std::fprintf(stderr, "%s\n", keys.status().ToString().c_str());
    return 1;
  }
  std::printf("minimal %g-separation keys up to size %u: %zu found\n",
              args.eps, args.max_size, keys->size());
  for (const AttributeSet& k : *keys) {
    std::printf("  %s\n", k.ToString(&data.schema()).c_str());
  }
  return 0;
}

int RunAudit(const Dataset& data, const Args& args, Rng* rng) {
  auto report = AuditQuasiIdentifiers(data, args.eps, args.max_size, rng);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", FormatRiskReport(*report, data.schema()).c_str());
  return 0;
}

/// Batch serve executor: discover once, freeze the result into a
/// `SnapshotStore`, then answer every request in `--requests` through a
/// `QueryEngine` — the offline harness for the serving layer (same
/// snapshot/engine/cache path a network front end would drive).
int RunServe(const Dataset& data, const Args& args, Rng* rng) {
  PipelineOptions opts;
  opts.eps = args.eps;
  opts.num_threads = args.threads;
  if (!ParseBackend(args.backend, &opts.backend)) return 2;
  DiscoveryPipeline pipeline(opts);
  Result<PipelineResult> result = pipeline.Run(data, rng);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  Result<ServeSnapshot> snapshot =
      SnapshotFromPipelineResult(*result, args.eps);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  SnapshotStore store;
  Result<uint64_t> epoch = store.Publish(std::move(*snapshot));
  if (!epoch.ok()) {
    std::fprintf(stderr, "%s\n", epoch.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<QueryRequest>> requests =
      LoadQueryRequestFile(args.requests, data.schema());
  if (!requests.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.requests.c_str(),
                 requests.status().ToString().c_str());
    return 1;
  }

  // --threads N callers each answer one contiguous chunk of the file
  // as one batch, through an engine of their own holding 1/N of the
  // --cache total. Answers are pure functions of (snapshot, request),
  // so the wire bytes do not depend on N; which repeats hit the cache
  // does.
  const std::span<const QueryRequest> all(*requests);
  const size_t callers = std::min(ResolveThreads(args.threads),
                                  std::max<size_t>(all.size(), 1));
  QueryEngineOptions engine_options;
  engine_options.cache_capacity = args.cache;
  std::vector<std::unique_ptr<QueryEngine>> engines;
  std::vector<const QueryEngine*> engine_views;
  for (size_t c = 0; c < callers; ++c) {
    engines.push_back(std::make_unique<QueryEngine>(
        &store, SplitQueryEngineOptions(engine_options, callers, c)));
    engine_views.push_back(engines.back().get());
  }
  // Registered before the batches run so every pass timing and cache
  // touch lands in the snapshot printed at the end.
  MetricsRegistry registry;
  if (args.stats) QueryEngine::RegisterMetrics(engine_views, &registry);
  std::unique_ptr<ThreadPool> pool;
  if (callers > 1) pool = std::make_unique<ThreadPool>(callers);
  std::vector<QueryResponse> responses(all.size());
  ThreadPool::ParallelFor(pool.get(), callers, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      size_t lo = all.size() * c / callers;
      size_t hi = all.size() * (c + 1) / callers;
      std::vector<QueryResponse> chunk =
          engines[c]->ExecuteBatch(all.subspan(lo, hi - lo));
      std::move(chunk.begin(), chunk.end(), responses.begin() + lo);
    }
  });

  if (args.wire) {
    // Wire mode: exactly one QIKEY/1 line per request, nothing else —
    // the same encoder the network server runs, so this output is
    // byte-diffable against a served session (the bit-identical check
    // the serve tests and the smoke test rely on). --stats appends one
    // extra JSON line after the wire lines.
    for (size_t i = 0; i < requests->size(); ++i) {
      std::printf("%s\n",
                  EncodeResponseLine((*requests)[i], responses[i],
                                     data.schema()).c_str());
    }
    if (args.stats) std::printf("%s\n", registry.RenderJson().c_str());
    return 0;
  }

  std::printf("serving %s\n", store.Current()->Describe().c_str());
  for (size_t i = 0; i < requests->size(); ++i) {
    std::printf("%s\n",
                FormatQueryResponse((*requests)[i], responses[i],
                                    &data.schema()).c_str());
  }
  uint64_t hits = 0, misses = 0;
  for (const QueryEngine* engine : engine_views) {
    hits += engine->cache_hits();
    misses += engine->cache_misses();
  }
  std::printf("served %zu request(s) on %zu thread(s); cache: %llu hit(s), "
              "%llu miss(es)\n",
              responses.size(), callers,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  if (args.stats) std::printf("%s\n", registry.RenderJson().c_str());
  return 0;
}

/// Emits one `{"type":"stats",...}` JSON line to stderr — the
/// periodic / SIGUSR1-triggered dump format of `qikey serve`. One
/// `write(2)` per line, so dumps never interleave with log or trace
/// output.
void DumpStatsLine(const MetricsRegistry& registry) {
  int64_t ts_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  std::string line = "{\"type\":\"stats\",\"ts_ms\":";
  line += std::to_string(ts_ms);
  line += ",\"metrics\":";
  line += registry.RenderJson();
  line += "}";
  WriteRawLine(line);
}

/// Splits a comma-separated list of paths ("--snapshot-from artifacts"
/// positional argument).
std::vector<std::string> SplitPaths(const std::string& spec) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string piece = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!piece.empty()) out.push_back(std::move(piece));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Assembles the discovery-side `SnapshotSource` shared by `serve` and
/// `snapshot save` from the positional input and flags.
bool BuildSnapshotSource(const Args& args, SnapshotSource* source) {
  if (args.snapshot_from == "run") {
    source->kind = SnapshotSource::Kind::kPipelineRun;
    source->csv_path = args.csv_path;
  } else if (args.snapshot_from == "monitor") {
    source->kind = SnapshotSource::Kind::kMonitor;
    source->csv_path = args.csv_path;
  } else {
    source->kind = SnapshotSource::Kind::kShardArtifacts;
    source->artifact_paths = SplitPaths(args.csv_path);
  }
  source->pipeline.eps = args.eps;
  source->pipeline.num_threads = args.threads;
  if (!ParseBackend(args.backend, &source->pipeline.backend)) return false;
  source->seed = args.seed;
  source->max_key_size = args.max_size;
  source->window = args.window;
  return true;
}

/// `qikey snapshot save`: build one serving snapshot (same sources as
/// `serve`) and freeze it into a QSNP1 artifact at --out.
int RunSnapshotSave(const Args& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "snapshot save needs --out FILE\n");
    return 2;
  }
  SnapshotSource source;
  if (!BuildSnapshotSource(args, &source)) return 2;
  Result<ServeSnapshot> snapshot = LoadSnapshot(source);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "cannot build snapshot: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  Result<std::string> image = snapfile::SerializeSnapshot(*snapshot);
  if (!image.ok()) {
    std::fprintf(stderr, "cannot serialize snapshot: %s\n",
                 image.status().ToString().c_str());
    return 1;
  }
  Status written = WriteFileBytes(*image, args.out);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu bytes, %s\n", args.out.c_str(), image->size(),
              snapshot->Describe().c_str());
  return 0;
}

/// `qikey snapshot inspect`: validate the file's layout and print the
/// header + section table as one JSON object. Exit 2 on a malformed
/// file so scripts can distinguish corruption from runtime errors.
int RunSnapshotInspect(const Args& args) {
  Result<snapfile::SnapshotFileInfo> info =
      snapfile::InspectSnapshotFile(args.csv_path);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", snapfile::RenderSnapshotInfoJson(*info).c_str());
  return 0;
}

/// `qikey serve`: build + publish one snapshot, run the epoll server
/// until SIGTERM/SIGINT, hot-swap on SIGHUP. The positional argument is
/// the CSV (run/monitor) or a comma-separated artifact list; with
/// --snapshot-file the snapshot is mapped from a QSNP1 artifact instead
/// and SIGHUP re-reads the file.
int RunServeNet(const Args& args) {
  const bool from_file = !args.snapshot_file.empty();
  if (from_file == !args.csv_path.empty()) {
    std::fprintf(stderr, from_file
                             ? "serve takes a positional input or "
                               "--snapshot-file, not both\n"
                             : "serve needs an input "
                               "(csv/artifacts or --snapshot-file)\n");
    return 2;
  }
  SnapshotSource source;
  if (!from_file && !BuildSnapshotSource(args, &source)) return 2;
  // One loader for startup and every SIGHUP: rebuild from the source,
  // or re-map the artifact (picking up a newly written file).
  auto load = [&]() -> Result<ServeSnapshot> {
    if (from_file) return snapfile::ReadSnapshotFile(args.snapshot_file);
    return LoadSnapshot(source);
  };

  Result<ServeSnapshot> snapshot = load();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "cannot build snapshot: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  Schema schema = snapshot->schema();
  SnapshotStore store;
  Result<uint64_t> epoch = store.Publish(std::move(*snapshot));
  if (!epoch.ok()) {
    std::fprintf(stderr, "%s\n", epoch.status().ToString().c_str());
    return 1;
  }

  QueryEngineOptions engine_options;
  engine_options.cache_capacity = args.cache;

  ServerOptions options;
  Result<HostPort> listen = ParseHostPort(args.listen);
  if (!listen.ok()) {
    std::fprintf(stderr, "bad --listen: %s\n",
                 listen.status().ToString().c_str());
    return 2;
  }
  options.listen = *listen;
  options.max_connections = args.max_conns;
  options.max_pending_per_conn = args.queue_depth;
  options.idle_timeout_ms = static_cast<int>(args.idle_timeout_ms);
  // One registry for the whole process: the server registers its own
  // shard-loop metrics into it and chains its engines' (cache,
  // snapshot, pass timings), so the `stats` verb, the periodic dump,
  // and SIGUSR1 all render the same families.
  MetricsRegistry registry;
  options.metrics = &registry;
  options.trace_sample = args.trace_sample;

  ServeServer server(&store, schema, engine_options, options);
  shutdown_flags::InstallSignalFlags();
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("serving %s\n", store.Current()->Describe().c_str());
  // Parsed by scripts (and the smoke test) to discover an ephemeral
  // port — keep the format stable and flush immediately.
  std::printf("listening on %s:%u\n", options.listen.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  using Clock = std::chrono::steady_clock;
  Clock::time_point next_dump =
      Clock::now() + std::chrono::seconds(args.stats_interval_sec);
  while (!shutdown_flags::ShutdownRequested() && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    bool dump = false;
    if (shutdown_flags::StatsDumpRequested()) {
      shutdown_flags::ClearStatsDump();
      dump = true;
    }
    if (args.stats_interval_sec > 0 && Clock::now() >= next_dump) {
      next_dump += std::chrono::seconds(args.stats_interval_sec);
      dump = true;
    }
    if (dump) DumpStatsLine(registry);
    if (shutdown_flags::ReloadRequested()) {
      shutdown_flags::ClearReload();
      // Hot swap: rebuild from the same source (or re-map the snapshot
      // file) and publish. Batches already executing finish on their
      // pinned epoch; a failure leaves the current snapshot serving.
      Result<ServeSnapshot> reloaded = load();
      if (!reloaded.ok()) {
        std::fprintf(stderr, "reload failed (still serving): %s\n",
                     reloaded.status().ToString().c_str());
        continue;
      }
      Result<uint64_t> swapped = store.Publish(std::move(*reloaded));
      if (swapped.ok()) {
        std::printf("reloaded: %s\n", store.Current()->Describe().c_str());
        std::fflush(stdout);
      }
    }
  }
  server.Shutdown();
  server.Join();

  // Final snapshot after the drain, so an interval-scraping consumer
  // always sees the complete totals.
  if (args.stats_interval_sec > 0) DumpStatsLine(registry);
  ServerStats stats = server.stats();
  std::printf("drained: %llu conn(s), %llu line(s), %llu response(s), "
              "%llu overload, %llu parse error(s), %llu batch(es)\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.lines_received),
              static_cast<unsigned long long>(stats.responses_sent),
              static_cast<unsigned long long>(stats.overload_responses),
              static_cast<unsigned long long>(stats.parse_errors),
              static_cast<unsigned long long>(stats.batches_executed));
  return 0;
}

int RunQuery(const Dataset& data, const Args& args, Rng* rng) {
  if (!args.requests.empty()) return RunServe(data, args, rng);
  if (args.attrs.empty()) {
    std::fprintf(stderr, "query needs --attrs a,b,c (or --requests FILE)\n");
    return 2;
  }
  AttributeSet attrs = ResolveAttrs(data, args.attrs);
  TupleSampleFilterOptions opts;
  opts.eps = args.eps;
  auto filter = TupleSampleFilter::Build(data, opts, rng);
  if (!filter.ok()) {
    std::fprintf(stderr, "%s\n", filter.status().ToString().c_str());
    return 1;
  }
  FilterVerdict v = filter->Query(attrs);
  std::printf("filter (%llu tuples): %s\n",
              static_cast<unsigned long long>(filter->sample_size()),
              v == FilterVerdict::kAccept ? "ACCEPT" : "REJECT");
  SeparationClass truth = Classify(data, attrs, args.eps);
  const char* truth_name = truth == SeparationClass::kKey ? "exact key"
                           : truth == SeparationClass::kBad
                               ? "bad (below 1-eps)"
                               : "eps-separation key (gray zone)";
  std::printf("exact:  %s separates %.6f%% of pairs -> %s\n",
              attrs.ToString(&data.schema()).c_str(),
              100.0 * SeparationRatio(data, attrs), truth_name);
  return 0;
}

int RunMask(const Dataset& data, const Args& args, Rng* rng) {
  MaskingOptions opts;
  opts.eps = args.eps;
  auto result = FindMaskingSet(data, opts, rng);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("mask %zu attribute(s) to kill all %g-quasi-identifiers: %s\n",
              result->masked.size(), args.eps,
              result->masked.ToString(&data.schema()).c_str());
  std::printf("  residual separation of released attributes: %.4f%%\n",
              100.0 * result->residual_separation);
  if (!result->achieved) {
    std::printf("  warning: target not reached within the mask budget\n");
  }
  return 0;
}

int RunAfd(const Dataset& data, const Args& args) {
  if (args.rhs.empty()) {
    std::fprintf(stderr, "afd needs --rhs <column>\n");
    return 2;
  }
  int rhs = data.schema().Find(args.rhs);
  if (rhs < 0) {
    std::fprintf(stderr, "unknown attribute: %s\n", args.rhs.c_str());
    return 2;
  }
  auto found = DiscoverMinimalAfds(data, static_cast<AttributeIndex>(rhs),
                                   args.afd_error, args.max_size);
  if (!found.ok()) {
    std::fprintf(stderr, "%s\n", found.status().ToString().c_str());
    return 1;
  }
  std::printf("minimal approximate FDs X -> %s (conditional error <= %g, "
              "|X| <= %u): %zu found\n",
              args.rhs.c_str(), args.afd_error, args.max_size,
              found->size());
  for (const AfdCandidate& c : *found) {
    std::printf("  %-44s g2=%.6f conditional=%.4f\n",
                c.lhs.ToString(&data.schema()).c_str(), c.error.g2,
                c.error.conditional);
  }
  return 0;
}

int RunAnonymize(const Dataset& data, const Args& args) {
  if (args.attrs.empty()) {
    std::fprintf(stderr, "anonymize needs --attrs a,b,c\n");
    return 2;
  }
  AttributeSet qi_set = ResolveAttrs(data, args.attrs);
  std::vector<AttributeIndex> qi = qi_set.ToIndices();
  std::vector<GeneralizationHierarchy> hierarchies;
  for (AttributeIndex a : qi) {
    uint32_t card = data.column(a).cardinality();
    hierarchies.push_back(card <= 2
                              ? GeneralizationHierarchy::KeepOrSuppress(card)
                              : GeneralizationHierarchy::Intervals(card, 4));
  }
  GeneralizationOptions opts;
  opts.k = args.k;
  opts.max_suppression = args.suppress;
  auto result = FindMinimalGeneralization(data, qi, hierarchies, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("minimal generalization for %llu-anonymity on %s "
              "(suppression budget %.1f%%):\n",
              static_cast<unsigned long long>(args.k),
              qi_set.ToString(&data.schema()).c_str(),
              100.0 * args.suppress);
  for (size_t i = 0; i < qi.size(); ++i) {
    std::printf("  %-20s level %u of %u (domain %u -> %u)\n",
                data.schema().name(qi[i]).c_str(), result->levels[i],
                hierarchies[i].levels() - 1,
                hierarchies[i].CardinalityAt(0),
                hierarchies[i].CardinalityAt(result->levels[i]));
  }
  std::printf("  achieved k = %llu, suppressed %.2f%%, classes = %llu\n",
              static_cast<unsigned long long>(result->anonymity_level),
              100.0 * result->suppressed,
              static_cast<unsigned long long>(result->classes));
  return 0;
}

/// In-memory discover, sample-first: the pipeline reads the CSV itself
/// and encodes only the rows its draws name.
int RunDiscover(const Args& args) {
  PipelineOptions opts;
  opts.eps = args.eps;
  opts.num_threads = args.threads;
  if (!ParseBackend(args.backend, &opts.backend)) return 2;
  DiscoveryPipeline pipeline(opts);
  Result<std::unique_ptr<CsvRowReader>> reader =
      CsvRowReader::Open(args.csv_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.csv_path.c_str(),
                 reader.status().ToString().c_str());
    return 1;
  }
  Rng rng(args.seed);
  auto result = pipeline.Run(**reader, &rng);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", result->Report(&result->sample->schema()).c_str());
  if (result->verdict != FilterVerdict::kAccept) {
    std::fprintf(stderr,
                 "verification failed: the emitted key was rejected\n");
    return 3;
  }
  return 0;
}

/// Sharded / out-of-core discover: the CSV is ingested by the pipeline
/// itself (never loaded whole here).
int RunDiscoverSharded(const Args& args) {
  PipelineOptions opts;
  opts.eps = args.eps;
  opts.num_threads = args.threads;
  if (!ParseBackend(args.backend, &opts.backend)) return 2;
  ShardedRunOptions sharded;
  sharded.num_shards = args.shards;
  sharded.memory_budget_bytes =
      static_cast<uint64_t>(args.memory_budget_mb * 1024.0 * 1024.0);
  DiscoveryPipeline pipeline(opts);
  auto result = pipeline.RunSharded(args.csv_path, sharded, args.seed);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  // The merged sample carries the header's names; the input is not
  // opened again (a FIFO could not be).
  std::printf("%s", result->Report(result->sample != nullptr
                                       ? &result->sample->schema()
                                       : nullptr)
                        .c_str());
  if (result->verdict != FilterVerdict::kAccept) {
    std::fprintf(stderr,
                 "verification failed: the emitted key was rejected\n");
    return 3;
  }
  return 0;
}

int RunMonitor(const Dataset& data, const Args& args) {
  MonitorOptions opts;
  opts.eps = args.eps;
  opts.max_key_size = args.max_size;
  opts.num_threads = args.threads;
  opts.window_capacity = args.window;
  if (!ParseBackend(args.backend, &opts.backend)) return 2;
  auto monitor = KeyMonitor::Make(data.schema(), opts, args.seed);
  if (!monitor.ok()) {
    std::fprintf(stderr, "%s\n", monitor.status().ToString().c_str());
    return 1;
  }
  Status replay = (*monitor)->InsertDataset(data);
  if (!replay.ok()) {
    std::fprintf(stderr, "%s\n", replay.ToString().c_str());
    return 1;
  }
  std::printf("replayed %zu row(s)%s; %llu key-churn event(s):\n",
              data.num_rows(),
              args.window > 0 ? " through a sliding window" : "",
              static_cast<unsigned long long>((*monitor)->events().size()));
  for (const KeyEvent& event : (*monitor)->events()) {
    const char* kind = event.kind == KeyEventKind::kAdded     ? "+ key"
                       : event.kind == KeyEventKind::kRemoved ? "- key"
                                                              : "rebuilt";
    std::printf("  [row %6llu] %s %s\n",
                static_cast<unsigned long long>(event.epoch), kind,
                event.kind == KeyEventKind::kRebuilt
                    ? "(incremental repair budget exhausted)"
                    : event.key.ToString(&data.schema()).c_str());
  }
  std::printf("updates: %llu untouched the sample, %llu repaired, %llu "
              "rebuilt\n",
              static_cast<unsigned long long>((*monitor)->untouched_updates()),
              static_cast<unsigned long long>((*monitor)->repaired_updates()),
              static_cast<unsigned long long>((*monitor)->rebuilds()));
  std::printf("%s", (*monitor)->Snapshot()->Report(&data.schema()).c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (args.log_json) LogMessage::SetJsonLines(true);
  if (args.command == "discover") {
    return args.shards > 0 || args.memory_budget_mb > 0.0
               ? RunDiscoverSharded(args)
               : RunDiscover(args);
  }
  // discover (above), serve and snapshot read their own input (CSV,
  // artifact files, or a snapshot file) via the pipeline, LoadSnapshot
  // or the snapfile reader.
  if (args.command == "serve") return RunServeNet(args);
  if (args.command == "snapshot") {
    return args.sub == "save" ? RunSnapshotSave(args)
                              : RunSnapshotInspect(args);
  }
  Result<Dataset> data = LoadCsvDataset(args.csv_path);
  if (!data.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.csv_path.c_str(),
                 data.status().ToString().c_str());
    return 1;
  }
  Rng rng(args.seed);
  if (args.command == "profile") return RunProfile(*data);
  if (args.command == "minkey") return RunMinKey(*data, args, &rng);
  if (args.command == "keys") return RunKeys(*data, args);
  if (args.command == "audit") return RunAudit(*data, args, &rng);
  if (args.command == "query") return RunQuery(*data, args, &rng);
  if (args.command == "mask") return RunMask(*data, args, &rng);
  if (args.command == "afd") return RunAfd(*data, args);
  if (args.command == "anonymize") return RunAnonymize(*data, args);
  if (args.command == "monitor") return RunMonitor(*data, args);
  Usage();
  return 2;
}

}  // namespace
}  // namespace qikey

int main(int argc, char** argv) { return qikey::Main(argc, argv); }
