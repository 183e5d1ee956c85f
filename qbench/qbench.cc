// qbench — the measuring half of the qikey end-to-end benchmark
// (`run.py` is the orchestrating half; see README.md).
//
//   qbench env
//   qbench gen covtype|adult --rows N --seed S --out FILE
//   qbench requests --csv FILE --mode iskey|mixed --count N --seed S
//                   --out FILE --distinct-out FILE
//   qbench discover --csv FILE --seconds S --threads T
//   qbench monitor --csv FILE --seconds S --seed S
//   qbench load --port P --server-pid PID --lines FILE --distinct FILE
//               --expected FILE --knee QPS --limit-us US --ref-rate QPS
//               --seconds S --conns C
//   qbench trace --csv FILE --adult FILE --snapshot FILE --port P
//                --server-pid PID --iskey-lines FILE --iskey-distinct FILE
//                --iskey-expected FILE --mixed-lines FILE
//                --mixed-distinct FILE --mixed-expected FILE
//                --ref-rate QPS --mixed-ref-rate QPS --conns C --threads T
//                --seed S --spans-out FILE
//
// Every mode prints one JSON object as its last stdout line; progress
// goes to stderr. Discovery and monitoring run in-process through the
// library entry points; serving is measured over loopback against a
// `qikey serve` process started by the caller.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/afd.h"
#include "core/anonymity.h"
#include "core/bitset_filter.h"
#include "core/evidence_block.h"
#include "core/key_enumeration.h"
#include "core/refine_engine.h"
#include "core/sample_bounds.h"
#include "core/separation.h"
#include "core/tuple_sample_filter.h"
#include "data/csv_loader.h"
#include "data/generators/tabular.h"
#include "data/wire_codec.h"
#include "engine/pipeline.h"
#include "loadgen.h"
#include "logic.h"
#include "monitor/incremental_filter.h"
#include "monitor/key_monitor.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "shard/filter_merger.h"
#include "shard/shard_builder.h"
#include "shard/sharded_loader.h"
#include "snapfile/snapfile.h"
#include "util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef QBENCH_BUILD_TYPE
#define QBENCH_BUILD_TYPE "unknown"
#endif

namespace qbench {
namespace {

using qikey::AttributeSet;
using qikey::Dataset;

constexpr double kEps = 0.001;
constexpr uint32_t kMonitorMaxKey = 4;
constexpr uint64_t kMonitorWindow = 10000;
constexpr int kBitsetRunsPerCycle = 40;
constexpr size_t kSaturationWindow = 64;
// Statistics are taken per window of this length, then as the median
// across windows (see `WindowedPercentile`).
constexpr int64_t kWindowNs = 500'000'000;
constexpr double kReferenceTrialS = 0.4;
// A reference trial whose generator ran later than this behind its
// schedule (p99) is left out of the latency and CPU medians.
constexpr double kMaxLateUs = 300;
// Skew of the mixed catalogue: popular entries repeat (the cache and
// dedupe see them), yet enough entries carry weight that a seed's
// draw of attribute sets moves the average cost little.
constexpr double kZipfExponent = 0.7;

/// --flag value pairs after the mode word.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) values_[argv[i]] = argv[i + 1];
  }
  std::string Str(const std::string& name, const std::string& def = "") {
    auto it = values_.find("--" + name);
    return it == values_.end() ? def : it->second;
  }
  double Num(const std::string& name, double def) {
    auto it = values_.find("--" + name);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "qbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(qikey::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

void MustOk(const qikey::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

double Seconds(int64_t ns) { return ns / 1e9; }

// ---------------------------------------------------------------- env

/// Host and build identity stamped on every result.
int RunEnv() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model = "unknown";
  std::set<std::string> flags;
  while (std::getline(cpuinfo, line)) {
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
    }
    if (flags.empty() && line.rfind("flags", 0) == 0) {
      std::istringstream words(line.substr(line.find(':') + 1));
      std::string w;
      while (words >> w) flags.insert(w);
    }
  }
  std::string isa;
  for (const char* f : {"sse4_2", "avx", "avx2", "bmi2", "popcnt", "avx512f",
                        "avx512bw", "avx512vl", "avx512_vpopcntdq"}) {
    if (flags.count(f)) isa += (isa.empty() ? "" : ",") + std::string(f);
  }
  std::printf("%s\n",
              JsonObject()
                  .Int("nproc", std::thread::hardware_concurrency())
                  .Str("cpu_model", model)
                  .Str("isa", isa)
                  .Str("evidence_kernel", qikey::EvidenceKernelName(
                                              qikey::ActiveEvidenceKernel()))
                  .Str("build_type", QBENCH_BUILD_TYPE)
                  .Render()
                  .c_str());
  return 0;
}

// ---------------------------------------------------------------- gen

int RunGen(const std::string& family, Flags flags) {
  if (family != "covtype" && family != "adult") Die("unknown family");
  qikey::TabularSpec spec = family == "covtype" ? qikey::CovtypeLikeSpec()
                                                : qikey::AdultLikeSpec();
  spec.num_rows = static_cast<uint64_t>(flags.Num("rows", 1000));
  qikey::Rng rng(static_cast<uint64_t>(flags.Num("seed", 1)));
  Dataset data = qikey::MakeTabular(spec, &rng);
  MustOk(qikey::SaveCsvDataset(data, flags.Str("out")), "save csv");
  std::printf("%s\n", JsonObject()
                          .Int("rows", data.num_rows())
                          .Int("attributes", data.num_attributes())
                          .Render()
                          .c_str());
  return 0;
}

// ----------------------------------------------------------- requests

std::string JoinNames(const std::vector<std::string>& names,
                      const AttributeSet& attrs) {
  std::string out;
  for (qikey::AttributeIndex a : attrs.ToIndices()) {
    if (!out.empty()) out += ',';
    out += names[a];
  }
  return out;
}

/// Draws ranks 0..n-1 with probability proportional to
/// (rank+1)^-kZipfExponent.
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
      cumulative_.push_back(total);
    }
  }
  size_t Draw(qikey::Rng* rng) const {
    double u = rng->UniformDouble() * cumulative_.back();
    return static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

/// The request sequences the serve workloads send. `iskey`: random
/// 3-6-attribute is-key sets (a working set far above the verdict
/// cache) plus ~5% min-key. `mixed`: a Zipf-skewed catalogue of a few
/// hundred distinct requests: is-key 40%, separation 20%, afd 15%,
/// anonymity 15%, min-key 10%.
int RunRequests(Flags flags) {
  std::vector<std::string> names =
      Must(qikey::ReadCsvAttributeNames(flags.Str("csv")), "read header");
  const size_t m = names.size();
  const size_t count = static_cast<size_t>(flags.Num("count", 100000));
  qikey::Rng rng(static_cast<uint64_t>(flags.Num("seed", 1)));
  auto random_set = [&](size_t lo, size_t hi) {
    size_t k = lo + rng.Uniform(hi - lo + 1);
    return AttributeSet::RandomOfSize(m, k, &rng);
  };
  std::vector<std::string> lines;
  if (flags.Str("mode") == "iskey") {
    for (size_t i = 0; i < count; ++i) {
      lines.push_back(rng.Uniform(100) < 5
                          ? std::string("min-key")
                          : "is-key " + JoinNames(names, random_set(3, 6)));
    }
  } else {
    // kind -> distinct catalogue entries, popularity by Zipf rank.
    std::vector<std::vector<std::string>> catalogue(5);
    for (int i = 0; i < 240; ++i) {
      catalogue[0].push_back("is-key " + JoinNames(names, random_set(3, 6)));
    }
    for (int i = 0; i < 120; ++i) {
      catalogue[1].push_back("separation " +
                             JoinNames(names, random_set(2, 4)));
    }
    for (int i = 0; i < 90; ++i) {
      AttributeSet lhs = random_set(1, 3);
      qikey::AttributeIndex rhs = 0;
      do {
        rhs = static_cast<qikey::AttributeIndex>(rng.Uniform(m));
      } while (lhs.Contains(rhs));
      catalogue[2].push_back("afd " + JoinNames(names, lhs) + " -> " +
                             names[rhs]);
    }
    for (int i = 0; i < 90; ++i) {
      catalogue[3].push_back("anonymity " + JoinNames(names, random_set(2, 4)) +
                             " " + std::to_string(2 + rng.Uniform(4)));
    }
    catalogue[4].push_back("min-key");
    const unsigned weights[] = {40, 20, 15, 15, 10};
    std::vector<Zipf> zipf;
    for (const auto& entries : catalogue) zipf.emplace_back(entries.size());
    for (size_t i = 0; i < count; ++i) {
      unsigned pick = static_cast<unsigned>(rng.Uniform(100));
      size_t kind = 0;
      while (pick >= weights[kind]) pick -= weights[kind++];
      lines.push_back(catalogue[kind][zipf[kind].Draw(&rng)]);
    }
  }
  std::ofstream out(flags.Str("out"));
  std::ofstream distinct_out(flags.Str("distinct-out"));
  std::set<std::string> seen;
  for (const std::string& line : lines) {
    out << line << '\n';
    if (seen.insert(line).second) distinct_out << line << '\n';
  }
  std::printf("%s\n", JsonObject()
                          .Int("lines", lines.size())
                          .Int("distinct", seen.size())
                          .Render()
                          .c_str());
  return 0;
}

// ----------------------------------------------------------- discover

/// The discover workload's correctness check: the key is accepted and
/// separates at least (1 - eps) of all pairs of the full table.
bool KeyIsGood(const qikey::PipelineResult& result, const Dataset& full) {
  return result.verdict == qikey::FilterVerdict::kAccept &&
         qikey::SeparationRatio(full, result.key) >= 1.0 - kEps;
}

/// The bitset pipeline verifies the greedy key against an independent
/// pair sample, so a rejection is a legitimate answer; it is correct
/// when its witness rows really agree on the key. An accepted key is
/// checked like `KeyIsGood` when `full_check` is set (the full-table
/// ratio costs more than the run itself).
bool BitsetAnswerIsGood(const qikey::PipelineResult& result,
                        const Dataset& full, bool full_check) {
  if (result.verdict == qikey::FilterVerdict::kReject) {
    return result.witness.has_value() &&
           full.RowsAgreeOn(result.witness->first, result.witness->second,
                            result.key.ToIndices());
  }
  return !full_check || KeyIsGood(result, full);
}

qikey::PipelineOptions DiscoverOptions(qikey::FilterBackend backend,
                                       size_t threads) {
  qikey::PipelineOptions options;
  options.eps = kEps;
  options.backend = backend;
  options.num_threads = threads;
  return options;
}

/// Analyst path: CSV -> verified key through three entry points —
/// LoadCsvDataset + Run (tuple), RunSharded(csv_path), and an
/// in-memory bitset Run on the loaded table.
int RunDiscover(Flags flags) {
  const std::string csv = flags.Str("csv");
  const double seconds = flags.Num("seconds", 10);
  const size_t threads = static_cast<size_t>(flags.Num("threads", 4));
  uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));
  qikey::DiscoveryPipeline tuple(
      DiscoverOptions(qikey::FilterBackend::kTupleSample, threads));
  qikey::DiscoveryPipeline bitset(
      DiscoverOptions(qikey::FilterBackend::kBitset, threads));
  uint64_t attempted = 0, failed = 0;

  // One CSV -> key pass through the tuple pipeline; returns its wall.
  Dataset data;
  auto tuple_pass = [&](double* cpu_us) {
    double cpu0 = ProcessCpuUs();
    int64_t t0 = NowNs();
    data = Must(qikey::LoadCsvDataset(csv), "load csv");
    qikey::Rng rng(seed++);
    qikey::PipelineResult result = Must(tuple.Run(data, &rng), "run");
    int64_t wall = NowNs() - t0;
    if (cpu_us != nullptr) *cpu_us = ProcessCpuUs() - cpu0;
    ++attempted;
    if (!KeyIsGood(result, data)) {
      ++failed;
      std::fprintf(stderr, "discover: tuple key failed its check\n");
    }
    return Seconds(wall);
  };

  // Set-up: two untimed warm-up passes (page cache, allocator, pools).
  std::vector<double> setup;
  for (int i = 0; i < 2; ++i) setup.push_back(tuple_pass(nullptr));

  // Bitset runs are interleaved with the two CSV passes, so every
  // statistic draws its samples from the whole run.
  std::vector<double> tuple_s, sharded_s, bitset_us, cpu_us;
  auto bitset_runs = [&] {
    for (int i = 0; i < kBitsetRunsPerCycle / 2; ++i) {
      qikey::Rng rng(seed++);
      int64_t b0 = NowNs();
      qikey::PipelineResult r = Must(bitset.Run(data, &rng), "bitset run");
      bitset_us.push_back((NowNs() - b0) / 1e3);
      ++attempted;
      if (!BitsetAnswerIsGood(r, data, i % 10 == 0)) {
        ++failed;
        std::fprintf(stderr, "discover: bitset answer failed its check\n");
      }
    }
  };
  const int64_t start = NowNs();
  while (tuple_s.empty() || Seconds(NowNs() - start) < seconds) {
    double cpu = 0;
    tuple_s.push_back(tuple_pass(&cpu));
    cpu_us.push_back(cpu);
    bitset_runs();

    qikey::ShardedRunOptions sharded;
    sharded.num_shards = threads;
    int64_t t0 = NowNs();
    qikey::PipelineResult result =
        Must(tuple.RunSharded(csv, sharded, seed++), "run sharded");
    sharded_s.push_back(Seconds(NowNs() - t0));
    ++attempted;
    if (!KeyIsGood(result, data)) {
      ++failed;
      std::fprintf(stderr, "discover: sharded key failed its check\n");
    }
    bitset_runs();
  }

  std::vector<double> sorted_bitset = bitset_us;
  std::sort(sorted_bitset.begin(), sorted_bitset.end());
  double t_tuple = Median(tuple_s), t_sharded = Median(sharded_s);
  double rows = static_cast<double>(data.num_rows());
  JsonObject metrics;
  metrics.Num("setup_s", Median(setup))
      .Num("throughput_per_s", rows / ((t_tuple + t_sharded) / 2))
      .Num("latency_p50_us", Median(bitset_us))
      .Num("latency_p90_us", Percentile(sorted_bitset, 90))
      .Num("cpu_us_per_op", Median(cpu_us))
      .Num("peak_rss_mb", ProcStatusMb("self", "VmHWM"));
  JsonObject info;
  info.Num("discover_s", t_tuple)
      .Num("discover_sharded_s", t_sharded)
      .Num("pipeline_bitset_ms", Median(bitset_us) / 1e3)
      .Num("pipeline_bitset_p99_ms", Percentile(sorted_bitset, 99) / 1e3)
      .Int("rows", data.num_rows())
      .Int("attributes", data.num_attributes())
      .Raw("discover_s_all", NumberList(tuple_s))
      .Raw("discover_sharded_s_all", NumberList(sharded_s))
      .Int("bitset_runs", bitset_us.size());
  std::printf("%s\n", JsonObject()
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("metrics", metrics.Render())
                          .Raw("info", info.Render())
                          .Render()
                          .c_str());
  return 0;
}

// ------------------------------------------------------------ monitor

std::vector<std::vector<qikey::ValueCode>> RowsOf(const Dataset& data) {
  std::vector<std::vector<qikey::ValueCode>> rows(data.num_rows());
  for (qikey::RowIndex r = 0; r < data.num_rows(); ++r) {
    rows[r].resize(data.num_attributes());
    for (size_t j = 0; j < data.num_attributes(); ++j) {
      rows[r][j] = data.code(r, static_cast<qikey::AttributeIndex>(j));
    }
  }
  return rows;
}

qikey::MonitorOptions MonitorOpts() {
  qikey::MonitorOptions options;
  options.eps = kEps;
  options.backend = qikey::FilterBackend::kBitset;
  options.max_key_size = kMonitorMaxKey;
  options.window_capacity = kMonitorWindow;
  return options;
}

/// A monitor whose window holds the first `kMonitorWindow` rows.
std::unique_ptr<qikey::KeyMonitor> PrimedMonitor(
    const Dataset& data,
    const std::vector<std::vector<qikey::ValueCode>>& rows, uint64_t seed) {
  auto monitor =
      Must(qikey::KeyMonitor::Make(data.schema(), MonitorOpts(), seed),
           "make monitor");
  for (uint64_t i = 0; i < kMonitorWindow; ++i) {
    MustOk(monitor->Insert(rows[i]), "prime");
  }
  return monitor;
}

/// The monitor's correctness check: its frontier equals a fresh
/// levelwise enumeration over its own filter.
bool FrontierMatches(const qikey::KeyMonitor& monitor) {
  qikey::KeyEnumerationOptions options;
  options.max_size = kMonitorMaxKey;
  auto expected = qikey::EnumerateMinimalAcceptedSets(
      monitor.filter(), monitor.schema().num_attributes(), options);
  return expected.ok() && *expected == monitor.Snapshot()->minimal_keys();
}

/// Reads `Snapshot()` in a loop until stopped, timing each read.
class SnapshotReader {
 public:
  explicit SnapshotReader(const qikey::KeyMonitor* monitor)
      : thread_([this, monitor] {
          while (!stop_.load(std::memory_order_relaxed)) {
            int64_t t0 = NowNs();
            auto snapshot = monitor->Snapshot();
            ns_.push_back(static_cast<double>(NowNs() - t0));
            // Touch the snapshot, as a reader would.
            keys_read_ += snapshot->keys->size();
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }) {}
  std::vector<double> Stop() {
    stop_ = true;
    thread_.join();
    return ns_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> ns_;
  uint64_t keys_read_ = 0;
  std::thread thread_;
};

/// Sliding-window monitor: one writer inserts the stream (evicting the
/// oldest row at capacity), one reader takes snapshots concurrently.
int RunMonitor(Flags flags) {
  const double seconds = flags.Num("seconds", 10);
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));
  Dataset data = Must(qikey::LoadCsvDataset(flags.Str("csv")), "load csv");
  auto rows = RowsOf(data);
  if (rows.size() <= kMonitorWindow) Die("stream shorter than the window");

  std::vector<double> setup;
  std::unique_ptr<qikey::KeyMonitor> monitor;
  for (int i = 0; i < 3; ++i) {
    int64_t t0 = NowNs();
    monitor = PrimedMonitor(data, rows, seed);
    setup.push_back(Seconds(NowNs() - t0));
  }

  SnapshotReader reader(monitor.get());
  std::vector<int64_t> done_ns;
  std::vector<double> update_us, window_cpu_us;
  uint64_t failed = 0;
  const uint64_t repaired_before = monitor->repaired_updates();
  size_t next = kMonitorWindow;
  const int64_t start = NowNs();
  int64_t window_end = start + kWindowNs;
  double window_cpu = ThreadCpuUs();
  size_t window_first = 0;
  while (update_us.empty() || Seconds(NowNs() - start) < seconds) {
    int64_t t0 = NowNs();
    if (!monitor->Insert(rows[next]).ok()) ++failed;
    int64_t t1 = NowNs();
    done_ns.push_back(t1);
    update_us.push_back((t1 - t0) / 1e3);
    if (++next == rows.size()) next = kMonitorWindow;
    if (t1 >= window_end) {  // writer CPU per update, per window
      double cpu = ThreadCpuUs();
      window_cpu_us.push_back((cpu - window_cpu) /
                              static_cast<double>(update_us.size() -
                                                  window_first));
      window_cpu = cpu;
      window_first = update_us.size();
      window_end += kWindowNs;
    }
  }
  const int64_t end = NowNs();
  std::vector<double> snapshot_ns = reader.Stop();
  bool frontier_ok = FrontierMatches(*monitor);
  if (!frontier_ok) ++failed;

  auto windows = Windows(done_ns, update_us, start, kWindowNs, 1000);
  const double rate = WindowedRate(done_ns, start, end, kWindowNs);
  JsonObject metrics;
  metrics.Num("setup_s", Median(setup))
      .Num("throughput_per_s", rate)
      .Num("latency_p50_us", WindowedPercentile(windows, 50))
      .Num("latency_p90_us", WindowedPercentile(windows, 90))
      .Num("cpu_us_per_op", Median(window_cpu_us))
      .Num("peak_rss_mb", ProcStatusMb("self", "VmHWM"));
  JsonObject info;
  info.Num("updates_per_s", rate)
      .Num("update_p99_us", WindowedPercentile(windows, 99))
      .Int("windows", windows.size())
      .Int("updates", update_us.size())
      .Int("repaired", monitor->repaired_updates() - repaired_before)
      .Int("rebuilds", monitor->rebuilds())
      .Num("snapshot_p50_ns", Median(snapshot_ns))
      .Int("snapshot_reads", snapshot_ns.size())
      .Bool("frontier_matches", frontier_ok);
  std::printf("%s\n", JsonObject()
                          .Int("attempted", update_us.size() + 1)
                          .Int("failed", failed)
                          .Raw("metrics", metrics.Render())
                          .Raw("info", info.Render())
                          .Render()
                          .c_str());
  return 0;
}

// --------------------------------------------------------------- load

/// `lines` with the expected answer of each, looked up by content in
/// the (distinct, expected) pair of files.
std::vector<std::string> ExpectedFor(const std::vector<std::string>& lines,
                                     const std::string& distinct_path,
                                     const std::string& expected_path) {
  std::vector<std::string> distinct = ReadLines(distinct_path);
  std::vector<std::string> answers = ReadLines(expected_path);
  if (distinct.size() != answers.size()) Die("expected/distinct mismatch");
  std::unordered_map<std::string, std::string> by_line;
  for (size_t i = 0; i < distinct.size(); ++i) by_line[distinct[i]] = answers[i];
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    auto it = by_line.find(line);
    if (it == by_line.end()) Die("no expected answer for: " + line);
    out.push_back(it->second);
  }
  return out;
}

std::string StepJson(const LadderStep& step) {
  return JsonObject()
      .Num("offered", step.offered_per_s)
      .Num("achieved", step.achieved_per_s)
      .Num("tail_us", step.tail_us)
      .Num("late_p99_us", step.late_p99_us)
      .Int("attempted", step.attempted)
      .Int("failed", step.failed)
      .Render();
}

void ReportFailures(const char* phase, const PhaseResult& r) {
  std::fprintf(stderr,
               "  %s %.0f/s: %llu shed, %llu wrong, %llu missing, %llu "
               "extra\n",
               phase, r.step.offered_per_s,
               static_cast<unsigned long long>(r.diff.shed),
               static_cast<unsigned long long>(r.diff.mismatched),
               static_cast<unsigned long long>(r.diff.missing),
               static_cast<unsigned long long>(r.diff.extra));
}

/// Serve measurement, in four phases:
///   warm-up (5% of the run) at the reference rate;
///   reference (30%): open loop at the fixed reference rate, as trials
///     of 0.4 s; latency and server CPU per request are medians over
///     the trials in which the generator kept to its schedule;
///   ladder (health): one trial per rung of the offered-rate ladder,
///     reporting achieved rate and generator lateness, until two rungs
///     in a row miss the limit;
///   saturation (35%): closed loop, the gated throughput.
/// Every answer is checked against its expected wire line.
int RunLoad(Flags flags) {
  const double knee = flags.Num("knee", 200000);
  const double limit_us = flags.Num("limit-us", 20000);
  const double ref_rate = flags.Num("ref-rate", 30000);
  const double seconds = flags.Num("seconds", 10);
  std::vector<std::string> lines = ReadLines(flags.Str("lines"));
  std::vector<std::string> expected =
      ExpectedFor(lines, flags.Str("distinct"), flags.Str("expected"));
  LoadClient client(static_cast<uint16_t>(flags.Num("port", 0)),
                    static_cast<int>(flags.Num("server-pid", 0)),
                    static_cast<size_t>(flags.Num("conns", 4)), &lines,
                    &expected);
  if (!client.Connect()) Die("cannot connect to the server");

  uint64_t cursor = 0;
  client.RunPhase(ref_rate, 0.05 * seconds, &cursor);

  // At the reference rate every shed, missing or wrong answer fails.
  // A trial in which the generator itself ran late (the host starved
  // the client) measures the host, not the server: its latency and CPU
  // are left out of the medians, unless too few trials remain.
  struct Trial {
    double p50, p90, p99, late, cpu;
  };
  std::vector<Trial> all, healthy;
  uint64_t attempted = 0, failed = 0;
  const double trial_s = std::max(kReferenceTrialS, 1000.0 / ref_rate);
  const int trials = std::max(4, static_cast<int>(0.3 * seconds / trial_s));
  for (int t = 0; t < trials; ++t) {
    PhaseResult r = client.RunPhase(ref_rate, trial_s, &cursor);
    if (r.diff.failed() > 0) ReportFailures("reference", r);
    Trial trial{Percentile(r.latency_us, 50), Percentile(r.latency_us, 90),
                Percentile(r.latency_us, 99), r.step.late_p99_us,
                r.server_cpu_us / static_cast<double>(
                                      std::max<uint64_t>(1, r.diff.matched))};
    all.push_back(trial);
    if (trial.late <= kMaxLateUs) healthy.push_back(trial);
    attempted += r.step.attempted;
    failed += r.step.failed;
  }
  const std::vector<Trial>& used = healthy.size() >= 3 ? healthy : all;
  auto median_of = [&](double Trial::*field) {
    std::vector<double> values;
    for (const Trial& t : used) values.push_back(t.*field);
    return Median(values);
  };

  // Above capacity, sheds and late answers are how the ladder finds the
  // knee, so there only wrong bytes fail.
  std::vector<LadderStep> steps;
  std::string steps_json = "[";
  int misses_in_row = 0;
  bool passed_any = false;
  for (double rate : RateLadder(knee)) {
    PhaseResult r = client.RunPhase(
        rate, std::max(seconds / 40, 1000.0 / rate), &cursor);
    if (r.diff.failed() > 0) ReportFailures("ladder", r);
    attempted += r.step.attempted;
    failed += r.diff.mismatched + r.diff.extra;
    steps.push_back(r.step);
    if (steps.size() > 1) steps_json += ',';
    steps_json += StepJson(r.step);
    std::fprintf(stderr, "  ladder %8.0f/s: achieved %8.0f/s, p%g %9.1f us, "
                 "late p99 %7.1f us, failed %llu\n",
                 rate, r.step.achieved_per_s, r.tail_q, r.step.tail_us,
                 r.step.late_p99_us,
                 static_cast<unsigned long long>(r.step.failed));
    if (StepMeetsLimit(r.step, limit_us)) {
      passed_any = true;
      misses_in_row = 0;
    } else {
      ++misses_in_row;
    }
    if (passed_any && misses_in_row >= 2) break;
  }
  steps_json += "]";

  WireDiff saturation_diff;
  const double saturation = client.Saturate(
      kSaturationWindow, 0.35 * seconds, &cursor, &saturation_diff);
  attempted += saturation_diff.matched + saturation_diff.failed();
  failed += saturation_diff.failed();
  std::fprintf(stderr, "  saturation (closed loop, %zu outstanding per "
               "connection): %.0f/s, %llu failed\n",
               kSaturationWindow, saturation,
               static_cast<unsigned long long>(saturation_diff.failed()));

  JsonObject metrics;
  metrics.Num("throughput_per_s", saturation)
      .Num("latency_p50_us", median_of(&Trial::p50))
      .Num("latency_p90_us", median_of(&Trial::p90))
      .Num("cpu_us_per_op", median_of(&Trial::cpu));
  JsonObject info;
  info.Num("capacity_qps", LadderCapacity(steps, limit_us))
      .Num("ladder_limit_us", limit_us)
      .Num("ref_rate", ref_rate)
      .Num("ref_p99_us", median_of(&Trial::p99))
      .Num("ref_late_p99_us", median_of(&Trial::late))
      .Int("ref_trials", all.size())
      .Int("ref_trials_used", used.size())
      .Raw("ladder", steps_json);
  std::printf("%s\n", JsonObject()
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("metrics", metrics.Render())
                          .Raw("info", info.Render())
                          .Render()
                          .c_str());
  return 0;
}

// -------------------------------------------------------------- trace

/// The pipeline's greedy -> minimize -> verify tail, called stage by
/// stage so each call gets its own span. Mirrors
/// `DiscoveryPipeline::FinishStages`, so it emits the same key.
AttributeSet TracedFinish(Tracer* tracer, int parent, uint64_t req,
                          const Dataset& sample,
                          const qikey::SeparationFilter& filter,
                          size_t threads, uint64_t* rounds) {
  std::unique_ptr<qikey::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<qikey::ThreadPool>(threads);
  AttributeSet key;
  {
    Scope s(tracer, "core.RunGreedy", parent, req);
    qikey::RefineEngine engine(sample, qikey::GainStrategy::kLookupTable);
    engine.set_thread_pool(pool.get());
    qikey::RefineEngine::GreedyResult greedy = engine.RunGreedy();
    key = std::move(greedy.chosen);
    *rounds = greedy.steps.size();
  }
  {
    Scope s(tracer, "core.minimize", parent, req);
    if (key.size() > 1) {
      std::vector<qikey::AttributeIndex> members = key.ToIndices();
      std::vector<AttributeSet> candidates;
      for (qikey::AttributeIndex a : members) {
        AttributeSet candidate = key;
        candidate.Remove(a);
        candidates.push_back(std::move(candidate));
      }
      std::vector<qikey::FilterVerdict> verdicts =
          filter.QueryBatch(candidates, pool.get());
      bool changed = false;
      for (size_t i = 0; i < members.size() && key.size() > 1; ++i) {
        if (verdicts[i] == qikey::FilterVerdict::kReject) continue;
        AttributeSet candidate = key;
        candidate.Remove(members[i]);
        if (changed &&
            filter.Query(candidate) != qikey::FilterVerdict::kAccept) {
          continue;
        }
        key = std::move(candidate);
        changed = true;
      }
    }
  }
  {
    Scope s(tracer, "core.verify", parent, req);
    filter.Query(key);
  }
  return key;
}

/// The tuple-sample draw of `DiscoveryPipeline::Run`.
std::shared_ptr<Dataset> TracedSample(Tracer* tracer, int parent,
                                      uint64_t req, const Dataset& data,
                                      qikey::Rng* rng,
                                      std::vector<qikey::RowIndex>* rows) {
  Scope s(tracer, "core.sample", parent, req);
  uint64_t r = std::min<uint64_t>(
      qikey::TupleSampleSizePaper(
          static_cast<uint32_t>(data.num_attributes()), kEps),
      data.num_rows());
  std::vector<uint64_t> chosen =
      rng->SampleWithoutReplacement(data.num_rows(), r);
  rows->assign(chosen.begin(), chosen.end());
  return std::make_shared<Dataset>(data.SelectRows(*rows));
}

/// Shares of a root span's wall per layer, from self times.
std::map<std::string, double> LayerShares(const Tracer& tracer,
                                          uint64_t first_span) {
  std::vector<Span> spans(tracer.spans().begin() + first_span,
                          tracer.spans().end());
  for (Span& s : spans) {
    if (s.parent >= 0) s.parent -= static_cast<int>(first_span);
  }
  std::map<std::string, int64_t> self = LayerSelfTimes(spans);
  int64_t total = 0;
  for (const auto& [layer, ns] : self) total += ns;
  std::map<std::string, double> shares;
  for (const auto& [layer, ns] : self) {
    shares[layer] = total > 0 ? static_cast<double>(ns) / total : 0.0;
  }
  return shares;
}

struct TraceOut {
  JsonObject metrics;
  std::string report;  ///< human-readable ledger lines

  void Add(const std::string& name, double value) {
    metrics.Num(name, value);
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %14.4f\n", name.c_str(),
                  value);
    report += line;
  }
  void Note(const std::string& text) { report += text + "\n"; }
};

/// Discovery ledger: the three entry points, each untraced (its wall is
/// the reference) and then replayed call by call under spans.
bool TraceDiscover(Flags& flags, Tracer* tracer, TraceOut* out) {
  const std::string csv = flags.Str("csv");
  const size_t threads = static_cast<size_t>(flags.Num("threads", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));
  bool ok = true;
  qikey::DiscoveryPipeline tuple(
      DiscoverOptions(qikey::FilterBackend::kTupleSample, threads));
  qikey::DiscoveryPipeline bitset(
      DiscoverOptions(qikey::FilterBackend::kBitset, threads));

  // Each path alternates an untraced pass (the reference wall time) with
  // a traced replay of the same work, so a drift in host speed hits both
  // alike. LoadCsvDataset + Run first: Run's stages one call at a time.
  std::vector<double> e2e_s, run_ms, traced_s, load_s;
  Dataset data;
  qikey::PipelineResult reference;
  uint64_t rounds = 0;
  size_t first = tracer->spans().size();
  for (int i = 0; i < 3; ++i) {
    int64_t t0 = NowNs();
    data = Must(qikey::LoadCsvDataset(csv), "load csv");
    int64_t t1 = NowNs();
    qikey::Rng reference_rng(seed);
    reference = Must(tuple.Run(data, &reference_rng), "run");
    e2e_s.push_back(Seconds(NowNs() - t0));
    run_ms.push_back((NowNs() - t1) / 1e6);
    ok &= KeyIsGood(reference, data);

    Scope root(tracer, "bench.discover", -1, i);
    int load_id;
    {
      Scope s(tracer, "data.LoadCsvDataset", root.id(), i);
      load_id = s.id();
      data = Must(qikey::LoadCsvDataset(csv), "load csv");
    }
    AttributeSet key;
    {
      Scope run(tracer, "engine.Run", root.id(), i);
      qikey::Rng rng(seed);
      std::vector<qikey::RowIndex> rows;
      std::shared_ptr<Dataset> sample =
          TracedSample(tracer, run.id(), i, data, &rng, &rows);
      std::unique_ptr<qikey::TupleSampleFilter> filter;
      {
        Scope s(tracer, "core.TupleSampleFilter", run.id(), i);
        filter = std::make_unique<qikey::TupleSampleFilter>(
            qikey::TupleSampleFilter::FromSample(
                sample, rows, qikey::DuplicateDetection::kSort));
      }
      key = TracedFinish(tracer, run.id(), i, *sample, *filter, threads,
                         &rounds);
    }
    ok &= key == reference.key;
    traced_s.push_back(Seconds(root.Close()));
    load_s.push_back(Seconds(tracer->WallNs(load_id)));
  }
  // Per-call medians over the three replays.
  std::map<std::string, std::vector<double>> call_ms;
  for (size_t i = first; i < tracer->spans().size(); ++i) {
    const Span& s = tracer->spans()[i];
    call_ms[s.name].push_back((s.end_ns - s.start_ns) / 1e6);
  }
  double core_ms = 0;
  for (const char* name : {"core.sample", "core.TupleSampleFilter",
                           "core.RunGreedy", "core.minimize", "core.verify"}) {
    core_ms += Median(call_ms[name]);
  }
  std::map<std::string, double> shares = LayerShares(*tracer, first);
  double load = Median(load_s);
  std::ifstream size_probe(csv, std::ios::binary | std::ios::ate);
  double mb = static_cast<double>(size_probe.tellg()) / (1 << 20);

  out->Note("discover (LoadCsvDataset + Run, tuple backend):");
  out->Add("data.csv_load_s", load);
  out->Add("data.csv_mb_per_s", mb / load);
  out->Add("core.sample_ms", Median(call_ms["core.sample"]));
  out->Add("core.tuple_filter_ms", Median(call_ms["core.TupleSampleFilter"]));
  out->Add("core.greedy_ms", Median(call_ms["core.RunGreedy"]));
  out->Add("core.minimize_ms", Median(call_ms["core.minimize"]));
  out->Add("core.verify_ms", Median(call_ms["core.verify"]));
  out->Add("engine.residual_ms", Median(run_ms) - core_ms);
  out->Add("ledger.discover.data_share", shares["data"]);
  out->Add("ledger.discover.core_share", shares["core"]);
  out->Add("ledger.discover.engine_share", shares["engine"]);
  out->Add("ledger.discover.coverage",
           (Median(traced_s) * (1 - shares["bench"])) / Median(e2e_s));
  out->Add("ledger.trace_overhead_frac", Median(traced_s) / Median(e2e_s) - 1);
  out->Add("count.key_size", reference.key.size());
  out->Add("count.greedy_rounds", rounds);
  out->Add("count.tuple_sample", reference.tuple_sample_size);

  // Sharded: RunSharded(csv_path) vs its build -> merge -> finish calls.
  std::vector<double> sharded_e2e, build_s, merge_ms, sharded_traced;
  qikey::ShardedRunOptions sharded;
  sharded.num_shards = threads;
  qikey::PipelineResult sharded_ref;
  first = tracer->spans().size();
  for (int i = 0; i < 3; ++i) {
    int64_t t0 = NowNs();
    sharded_ref = Must(tuple.RunSharded(csv, sharded, seed), "run sharded");
    sharded_e2e.push_back(Seconds(NowNs() - t0));
    ok &= KeyIsGood(sharded_ref, data);

    Scope root(tracer, "bench.discover_sharded", -1, 10 + i);
    qikey::Rng seeder(seed);
    qikey::ShardedBuildOptions build;
    build.eps = kEps;
    build.num_threads = threads;
    build.num_shards = threads;
    build.seed = seeder.Next();
    const uint64_t merge_seed = seeder.Next();
    std::vector<qikey::ShardFilterArtifact> artifacts;
    {
      Scope s(tracer, "shard.BuildShardArtifactsFromCsv", root.id(), 10 + i);
      artifacts = Must(qikey::BuildShardArtifactsFromCsv(csv, build),
                       "build shards");
      build_s.push_back(Seconds(NowNs() - tracer->spans()[s.id()].start_ns));
    }
    AttributeSet key;
    {
      Scope run(tracer, "engine.RunOnShardArtifacts", root.id(), 10 + i);
      qikey::MergedFilter merged;
      {
        Scope s(tracer, "shard.FilterMerger", run.id(), 10 + i);
        qikey::FilterMerger::Options options;
        uint64_t r = 0, slots = 0;
        qikey::ResolveShardSampleSizes(
            build,
            static_cast<uint32_t>(artifacts[0].tuple_sample.num_attributes()),
            &r, &slots);
        options.tuple_sample_size = r;
        options.seed = merge_seed;
        qikey::FilterMerger merger(options);
        for (auto& artifact : artifacts) {
          MustOk(merger.Add(std::move(artifact)), "merge");
        }
        merged = Must(std::move(merger).Finish(), "finish merge");
        merge_ms.push_back((NowNs() - tracer->spans()[s.id()].start_ns) / 1e6);
      }
      std::shared_ptr<Dataset> sample = merged.tuple_filter->shared_sample();
      qikey::TupleSampleFilter filter = std::move(*merged.tuple_filter);
      uint64_t unused = 0;
      key = TracedFinish(tracer, run.id(), 10 + i, *sample, filter, threads,
                         &unused);
    }
    ok &= key == sharded_ref.key;
    sharded_traced.push_back(Seconds(root.Close()));
  }
  shares = LayerShares(*tracer, first);
  out->Note("discover_sharded (RunSharded(csv_path)):");
  out->Add("shard.build_s", Median(build_s));
  out->Add("shard.merge_ms", Median(merge_ms));
  out->Add("ledger.discover_sharded.shard_share", shares["shard"]);
  out->Add("ledger.discover_sharded.core_share", shares["core"]);
  out->Add("ledger.discover_sharded.coverage",
           Median(sharded_traced) * (1 - shares["bench"]) /
               Median(sharded_e2e));

  // Bitset: in-memory Run vs sample -> Build -> finish calls.
  std::vector<double> bitset_e2e, build_ms, bitset_traced;
  qikey::PipelineResult bitset_ref;
  first = tracer->spans().size();
  for (int i = 0; i < 9; ++i) {
    qikey::Rng reference_rng(seed);
    int64_t t0 = NowNs();
    bitset_ref = Must(bitset.Run(data, &reference_rng), "bitset run");
    bitset_e2e.push_back((NowNs() - t0) / 1e6);
    ok &= BitsetAnswerIsGood(bitset_ref, data, i == 0);

    Scope root(tracer, "bench.pipeline_bitset", -1, 20 + i);
    AttributeSet key;
    {
      Scope run(tracer, "engine.Run", root.id(), 20 + i);
      qikey::Rng rng(seed);
      std::vector<qikey::RowIndex> rows;
      std::shared_ptr<Dataset> sample =
          TracedSample(tracer, run.id(), 20 + i, data, &rng, &rows);
      qikey::BitsetFilterOptions options;
      options.eps = kEps;
      int64_t b0 = NowNs();
      std::unique_ptr<qikey::BitsetSeparationFilter> filter;
      {
        Scope s(tracer, "core.BitsetSeparationFilter::Build", run.id(),
                20 + i);
        filter = std::make_unique<qikey::BitsetSeparationFilter>(
            Must(qikey::BitsetSeparationFilter::Build(data, options, &rng),
                 "bitset build"));
      }
      build_ms.push_back((NowNs() - b0) / 1e6);
      uint64_t unused = 0;
      key = TracedFinish(tracer, run.id(), 20 + i, *sample, *filter, threads,
                         &unused);
    }
    ok &= key == bitset_ref.key;
    bitset_traced.push_back(root.Close() / 1e6);
  }
  shares = LayerShares(*tracer, first);
  out->Note("pipeline_bitset (in-memory Run, bitset backend):");
  out->Add("core.bitset_build_ms", Median(build_ms));
  out->Add("ledger.pipeline_bitset.core_share", shares["core"]);
  out->Add("ledger.pipeline_bitset.engine_share", shares["engine"]);
  out->Add("ledger.pipeline_bitset.coverage",
           Median(bitset_traced) * (1 - shares["bench"]) / Median(bitset_e2e));
  out->Add("count.pair_sample", bitset_ref.filter_sample_size);
  return ok;
}

/// Serve ledger: in-process timings of each serve-path call on the
/// served snapshot file, then loopback timings against the server.
bool TraceServe(Flags& flags, Tracer* tracer, TraceOut* out) {
  bool ok = true;
  const std::string path = flags.Str("snapshot");
  std::vector<double> load_ms, save_ms;
  qikey::ServeSnapshot snapshot;
  for (int i = 0; i < 5; ++i) {
    Scope root(tracer, "bench.snapshot_load", -1, 30 + i);
    Scope s(tracer, "snapfile.ReadSnapshotFile", root.id(), 30 + i);
    snapshot = Must(qikey::snapfile::ReadSnapshotFile(path), "read snapshot");
    load_ms.push_back((NowNs() - tracer->spans()[s.id()].start_ns) / 1e6);
  }
  const std::string scratch = path + ".trace-save";
  for (int i = 0; i < 5; ++i) {
    Scope root(tracer, "bench.snapshot_save", -1, 40 + i);
    Scope s(tracer, "snapfile.save", root.id(), 40 + i);
    std::string image =
        Must(qikey::snapfile::SerializeSnapshot(snapshot), "serialize");
    MustOk(qikey::WriteFileBytes(image, scratch), "write snapshot");
    save_ms.push_back((NowNs() - tracer->spans()[s.id()].start_ns) / 1e6);
  }
  std::remove(scratch.c_str());
  out->Note("snapfile:");
  out->Add("snapfile.save_ms", Median(save_ms));
  out->Add("snapfile.load_ms", Median(load_ms));

  const qikey::Schema schema = snapshot.schema();
  qikey::SnapshotStore store;
  Must(store.Publish(snapshot), "publish");
  auto current = store.Current();

  std::vector<std::string> iskey_lines = ReadLines(flags.Str("iskey-lines"));
  std::vector<std::string> iskey_expected = ExpectedFor(
      iskey_lines, flags.Str("iskey-distinct"), flags.Str("iskey-expected"));
  std::vector<std::string> mixed_lines = ReadLines(flags.Str("mixed-lines"));
  std::vector<std::string> mixed_distinct =
      ReadLines(flags.Str("mixed-distinct"));

  // Parse: every line of the first 20k is-key-workload requests.
  const size_t n = std::min<size_t>(20000, iskey_lines.size());
  std::vector<qikey::QueryRequest> requests;
  requests.reserve(n);
  int64_t p0 = NowNs();
  {
    Scope s(tracer, "serve.ParseQueryRequest", -1, 50);
    for (size_t i = 0; i < n; ++i) {
      requests.push_back(
          Must(qikey::ParseQueryRequest(iskey_lines[i], schema), "parse"));
    }
  }
  const double parse_ns = static_cast<double>(NowNs() - p0) / n;

  // Distinct is-key sets of one 4096-request batch.
  std::vector<qikey::QueryRequest> distinct;
  std::vector<AttributeSet> sets;
  {
    std::set<std::string> seen;
    for (size_t i = 0; i < std::min<size_t>(4096, n); ++i) {
      if (requests[i].kind != qikey::QueryKind::kIsKey) continue;
      if (!seen.insert(requests[i].attrs.ToString()).second) continue;
      distinct.push_back(requests[i]);
      sets.push_back(requests[i].attrs);
    }
  }
  std::vector<double> kernel_ns, miss_ns, hit_ns, single_ns, encode_ns;
  for (int rep = 0; rep < 7; ++rep) {
    Scope s(tracer, "core.QueryBatch", -1, 60 + rep);
    int64_t t0 = NowNs();
    current->filter->QueryBatch(sets);
    kernel_ns.push_back(static_cast<double>(NowNs() - t0) / sets.size());
  }
  qikey::QueryEngineOptions cache_off;
  cache_off.cache_capacity = 0;
  qikey::QueryEngine cold(&store, cache_off);
  std::vector<qikey::QueryResponse> responses;
  for (int rep = 0; rep < 7; ++rep) {
    Scope s(tracer, "serve.ExecuteBatch.miss", -1, 70 + rep);
    int64_t t0 = NowNs();
    responses = cold.ExecuteBatch(distinct);
    miss_ns.push_back(static_cast<double>(NowNs() - t0) / distinct.size());
  }
  qikey::QueryEngine warm(&store, qikey::QueryEngineOptions{});
  std::vector<qikey::QueryRequest> hot(
      distinct.begin(), distinct.begin() + std::min<size_t>(1000, distinct.size()));
  warm.ExecuteBatch(hot);
  for (int rep = 0; rep < 7; ++rep) {
    Scope s(tracer, "serve.ExecuteBatch.hit", -1, 80 + rep);
    int64_t t0 = NowNs();
    auto hits = warm.ExecuteBatch(hot);
    hit_ns.push_back(static_cast<double>(NowNs() - t0) / hot.size());
    for (const auto& r : hits) ok &= r.cache_hit;
  }
  for (size_t i = 0; i < 2000; ++i) {
    const qikey::QueryRequest& one = distinct[i % distinct.size()];
    int64_t t0 = NowNs();
    cold.ExecuteBatch(std::span<const qikey::QueryRequest>(&one, 1));
    single_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  {
    // Encode, checking each answer against `qikey query --wire`.
    std::unordered_map<std::string, std::string> want;
    for (size_t i = 0; i < n; ++i) want[iskey_lines[i]] = iskey_expected[i];
    Scope s(tracer, "serve.EncodeResponseLine", -1, 90);
    int64_t t0 = NowNs();
    std::vector<std::string> encoded;
    encoded.reserve(distinct.size());
    for (size_t i = 0; i < distinct.size(); ++i) {
      encoded.push_back(
          qikey::EncodeResponseLine(distinct[i], responses[i], schema));
    }
    encode_ns.push_back(static_cast<double>(NowNs() - t0) / distinct.size());
    for (size_t i = 0; i < distinct.size(); ++i) {
      std::string line = "is-key " + JoinNames(schema.names(), distinct[i].attrs);
      ok &= want.count(line) && want[line] == encoded[i];
    }
  }
  const double kernel = Median(kernel_ns);
  out->Note("serve engine (in-process, served snapshot):");
  out->Add("serve.parse_ns", parse_ns);
  out->Add("core.kernel_ns_per_set", kernel);
  out->Add("serve.engine_ns.miss", Median(miss_ns));
  out->Add("serve.engine_ns.miss_overhead", Median(miss_ns) - kernel);
  out->Add("serve.engine_ns.hit", Median(hit_ns));
  out->Add("serve.encode_ns", Median(encode_ns));

  // Per-kind sample evaluation on the snapshot's sample.
  std::map<qikey::QueryKind, std::vector<double>> eval_us;
  const Dataset& sample = *current->sample;
  for (const std::string& line : mixed_distinct) {
    qikey::QueryRequest q = Must(qikey::ParseQueryRequest(line, schema), line);
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      int64_t t0 = NowNs();
      if (q.kind == qikey::QueryKind::kSeparation) {
        volatile double ratio = qikey::SeparationRatio(sample, q.attrs);
        volatile auto cls = qikey::Classify(sample, q.attrs, current->eps);
        (void)ratio;
        (void)cls;
      } else if (q.kind == qikey::QueryKind::kAfd) {
        volatile auto err = qikey::ComputeAfdError(sample, q.attrs, q.rhs).g2;
        (void)err;
      } else if (q.kind == qikey::QueryKind::kAnonymity) {
        volatile auto level = qikey::AnonymityLevel(sample, q.attrs);
        volatile double below = qikey::RowsBelowK(sample, q.attrs, q.k);
        (void)level;
        (void)below;
      } else {
        continue;
      }
      reps.push_back((NowNs() - t0) / 1e3);
    }
    if (!reps.empty()) eval_us[q.kind].push_back(Median(reps));
  }
  out->Add("core.eval_us.separation",
           Median(eval_us[qikey::QueryKind::kSeparation]));
  out->Add("core.eval_us.afd", Median(eval_us[qikey::QueryKind::kAfd]));
  out->Add("core.eval_us.anonymity",
           Median(eval_us[qikey::QueryKind::kAnonymity]));

  // The engine on the mixed stream (its cache hits), and dedupe on the
  // is-key stream, both in the server's batch sizes of up to 64 lines.
  double mixed_engine_us = 0;
  {
    qikey::QueryEngine engine(&store, qikey::QueryEngineOptions{});
    uint64_t iskey = 0, hits = 0;
    const size_t limit = std::min<size_t>(20000, mixed_lines.size());
    int64_t engine_ns = 0;
    for (size_t b = 0; b < limit; b += 64) {
      std::vector<qikey::QueryRequest> batch;
      for (size_t i = b; i < std::min(limit, b + 64); ++i) {
        batch.push_back(
            Must(qikey::ParseQueryRequest(mixed_lines[i], schema), "parse"));
      }
      Scope s(tracer, "serve.ExecuteBatch.mixed", -1, 95);
      auto answers = engine.ExecuteBatch(batch);
      engine_ns += s.Close();
      for (size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].kind != qikey::QueryKind::kIsKey) continue;
        ++iskey;
        hits += answers[i].cache_hit;
      }
    }
    uint64_t misses = 0, unique = 0;
    for (size_t b = 0; b < n; b += 64) {
      std::set<std::string> seen;
      for (size_t i = b; i < std::min(n, b + 64); ++i) {
        if (requests[i].kind != qikey::QueryKind::kIsKey) continue;
        ++misses;
        unique += seen.insert(requests[i].attrs.ToString()).second;
      }
    }
    mixed_engine_us = engine_ns / 1e3 / static_cast<double>(limit);
    out->Add("serve.engine_us.mixed", mixed_engine_us);
    out->Add("serve.cache_hit_ratio", static_cast<double>(hits) / iskey);
    out->Note("    base: " + std::to_string(iskey) +
              " is-key requests of the mixed stream");
    out->Add("serve.dedupe_ratio", static_cast<double>(unique) / misses);
    out->Note("    base: " + std::to_string(misses) +
              " is-key requests of the is-key stream, batches of 64");
  }

  // Loopback: one outstanding request, then the reference rate.
  const uint16_t port = static_cast<uint16_t>(flags.Num("port", 0));
  const int pid = static_cast<int>(flags.Num("server-pid", 0));
  uint64_t cursor = n;
  LoadClient lockstep(port, pid, 1, &iskey_lines, &iskey_expected);
  if (!lockstep.Connect()) Die("cannot connect to the server");
  WireDiff diff;
  lockstep.Lockstep(500, &cursor, &diff);  // warm-up
  int rtt_id = tracer->Begin("bench.lockstep", -1, 100);
  std::vector<double> rtt = lockstep.Lockstep(3000, &cursor, &diff);
  tracer->End(rtt_id);
  ok &= diff.failed() == 0;
  const double rtt_us = Median(rtt);
  const double in_process_us =
      (parse_ns + Median(single_ns) + Median(encode_ns)) / 1e3;
  out->Add("serve.lockstep_rtt_us", rtt_us);
  out->Add("serve.engine_ns.single", Median(single_ns));
  out->Add("serve.residual_us", rtt_us - in_process_us);

  // Server CPU per request at each workload's reference rate, and the
  // share of it the in-process calls above account for; the rest is
  // the reactor, the thread hops and the syscalls.
  const size_t conns = static_cast<size_t>(flags.Num("conns", 4));
  auto server_cpu_per_req = [&](const std::vector<std::string>& lines,
                                const std::vector<std::string>& expected,
                                double rate, uint64_t request) {
    LoadClient loaded(port, pid, conns, &lines, &expected);
    if (!loaded.Connect()) Die("cannot connect to the server");
    uint64_t start = 0;
    Scope s(tracer, "bench.reference_rate", -1, request);
    PhaseResult r = loaded.RunPhase(rate, 2.0, &start);
    ok &= r.diff.failed() == 0;
    return r.server_cpu_us /
           static_cast<double>(std::max<uint64_t>(1, r.diff.matched));
  };
  const double iskey_cpu = server_cpu_per_req(
      iskey_lines, iskey_expected, flags.Num("ref-rate", 30000), 101);
  out->Add("serve.cpu_us_per_req.iskey", iskey_cpu);
  out->Add("ledger.serve_iskey.in_process_share",
           (parse_ns + Median(miss_ns) + Median(encode_ns)) / 1e3 / iskey_cpu);
  std::vector<std::string> mixed_expected = ExpectedFor(
      mixed_lines, flags.Str("mixed-distinct"), flags.Str("mixed-expected"));
  const double mixed_cpu = server_cpu_per_req(
      mixed_lines, mixed_expected, flags.Num("mixed-ref-rate", 1700), 102);
  out->Add("serve.cpu_us_per_req.mixed", mixed_cpu);
  out->Add("ledger.serve_mixed.in_process_share",
           (parse_ns + Median(encode_ns)) / 1e3 / mixed_cpu +
               mixed_engine_us / mixed_cpu);
  return ok;
}

/// Monitor ledger: Insert classified by whether it repaired the
/// frontier, against a bare IncrementalFilter replaying the stream.
bool TraceMonitor(Flags& flags, Tracer* tracer, TraceOut* out) {
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));
  Dataset data = Must(qikey::LoadCsvDataset(flags.Str("adult")), "load csv");
  auto rows = RowsOf(data);
  const size_t updates = std::min<size_t>(20000, rows.size() - kMonitorWindow);

  // Untraced reference, with the same concurrent reader.
  auto untraced = PrimedMonitor(data, rows, seed);
  double untraced_us = 0;
  {
    SnapshotReader untraced_reader(untraced.get());
    int64_t u0 = NowNs();
    for (size_t i = 0; i < updates; ++i) {
      MustOk(untraced->Insert(rows[kMonitorWindow + i]), "insert");
    }
    untraced_us = (NowNs() - u0) / 1e3 / updates;
    untraced_reader.Stop();
  }

  auto monitor = PrimedMonitor(data, rows, seed);
  SnapshotReader reader(monitor.get());
  std::vector<double> untouched_us, repaired_us;
  int root = tracer->Begin("bench.monitor_stream", -1, 200);
  for (size_t i = 0; i < updates; ++i) {
    uint64_t before = monitor->repaired_updates();
    int id = tracer->Begin("monitor.Insert", root, 200);
    MustOk(monitor->Insert(rows[kMonitorWindow + i]), "insert");
    tracer->End(id);
    double us = tracer->WallNs(id) / 1e3;
    (monitor->repaired_updates() > before ? repaired_us : untouched_us)
        .push_back(us);
  }
  tracer->End(root);
  const double traced_us = tracer->WallNs(root) / 1e3 / updates;
  std::vector<double> snapshot_ns = reader.Stop();
  bool ok = FrontierMatches(*monitor);

  // The bare filter under the same sliding window.
  qikey::IncrementalFilterOptions options;
  options.eps = kEps;
  options.backend = qikey::FilterBackend::kBitset;
  auto filter = Must(
      qikey::IncrementalFilter::Make(data.schema(), options, seed), "filter");
  for (uint64_t i = 0; i < kMonitorWindow; ++i) {
    Must(filter.Insert(rows[i]), "insert");
  }
  std::vector<double> filter_us;
  int replay = tracer->Begin("bench.filter_replay", -1, 201);
  for (size_t i = 0; i < updates; ++i) {
    int id = tracer->Begin("monitor.IncrementalFilter", replay, 201);
    Must(filter.Erase(rows[i]), "evict");
    Must(filter.Insert(rows[kMonitorWindow + i]), "insert");
    tracer->End(id);
    filter_us.push_back(tracer->WallNs(id) / 1e3);
  }
  tracer->End(replay);
  const double filter_mean = tracer->WallNs(replay) / 1e3 / updates;

  out->Note("monitor (sliding window, bitset backend):");
  out->Add("monitor.update_us.untouched", Median(untouched_us));
  out->Add("monitor.update_us.repaired", Median(repaired_us));
  out->Add("monitor.filter_update_us", Median(filter_us));
  out->Add("monitor.repaired_frac",
           static_cast<double>(repaired_us.size()) / updates);
  out->Add("monitor.rebuilds", monitor->rebuilds());
  out->Add("monitor.snapshot_ns", Median(snapshot_ns));
  out->Add("ledger.monitor.filter_share", filter_mean / traced_us);
  out->Add("ledger.monitor.trace_overhead_frac", traced_us / untraced_us - 1);
  return ok;
}

int RunTrace(Flags flags) {
  Tracer tracer;
  TraceOut out;
  bool ok = TraceDiscover(flags, &tracer, &out);
  ok &= TraceServe(flags, &tracer, &out);
  ok &= TraceMonitor(flags, &tracer, &out);
  std::ofstream spans(flags.Str("spans-out"));
  spans << tracer.RenderJson() << "\n";
  std::fprintf(stderr, "%s", out.report.c_str());
  std::printf("%s\n", JsonObject()
                          .Int("attempted", 1)
                          .Int("failed", ok ? 0 : 1)
                          .Raw("metrics", out.metrics.Render())
                          .Render()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace qbench

int main(int argc, char** argv) {
  using namespace qbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: qbench env|gen|requests|discover|monitor|"
                         "load|trace [--flag value ...]\n");
    return 2;
  }
  std::string mode = argv[1];
  if (mode == "env") return RunEnv();
  if (mode == "gen" && argc >= 3) return RunGen(argv[2], Flags(argc, argv, 3));
  Flags flags(argc, argv, 2);
  if (mode == "requests") return RunRequests(flags);
  if (mode == "discover") return RunDiscover(flags);
  if (mode == "monitor") return RunMonitor(flags);
  if (mode == "load") return RunLoad(flags);
  if (mode == "trace") return RunTrace(flags);
  std::fprintf(stderr, "qbench: unknown mode %s\n", mode.c_str());
  return 2;
}
