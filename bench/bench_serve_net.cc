// Open-loop loopback latency for the qikey serve network server.
//
// An in-process `ServeServer` (ephemeral port) is loaded with one
// discovery snapshot; C client connections each fire a mixed QIKEY/1
// workload on a FIXED schedule (open loop: send times are set in
// advance, so a slow server accumulates queueing delay instead of
// silently slowing the load generator — no coordinated omission).
// Latency for request i is (response received) − (scheduled send),
// pooled across connections into p50/p99/p999.
//
// Every response byte is also diffed against the shared encoder run
// directly on an engine — the bench aborts on the first divergence,
// so the latency numbers can never come from wrong answers.
//
// The load runs TWICE, each time on a fresh server whose shard loops'
// engines start with empty verdict caches: once with the
// default (baked-in) instrumentation only, once with an external
// metrics registry attached and request tracing sampled at 1/64 — the
// configuration `qikey serve --stats-interval-sec ... --trace-sample`
// runs in production. Both passes are reported (params:
// instrumentation=idle|on) so CI can flag when the observability layer
// itself regresses request latency.
//
//   ./bench_serve_net [--json PATH] [--conns C] [--rps R] [--per-conn N]
//
// Defaults are sized for a small CI box (4 conns x 500 requests at
// 2000 req/s aggregate ≈ 1 s of load, per pass).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "data/generators/tabular.h"
#include "engine/pipeline.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/flag_parse.h"
#include "util/net.h"
#include "util/rng.h"

namespace qikey {
namespace {

using Clock = std::chrono::steady_clock;

/// 16-attribute table: wide enough for varied attribute sets, small
/// enough that snapshot discovery is a startup blip.
Dataset MakeTable(uint64_t rows, Rng* rng) {
  TabularSpec spec;
  spec.num_rows = rows;
  for (int j = 0; j < 16; ++j) {
    AttributeSpec attr;
    attr.name = "a";
    attr.name += std::to_string(j);
    attr.cardinality = (j % 3 == 0) ? 1024 : 8;
    spec.attributes.push_back(attr);
  }
  return MakeTabular(spec, rng);
}

/// A deterministic mixed wire workload (is-key heavy, like a serving
/// tier; every line parses against `schema`).
std::vector<std::string> MakeWorkload(const Schema& schema, size_t count,
                                      uint64_t seed) {
  Rng rng(seed);
  size_t m = schema.num_attributes();
  std::vector<std::string> lines;
  lines.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t pick = rng.Uniform(10);
    if (pick < 6) {
      AttributeSet attrs = AttributeSet::RandomOfSize(m, 4, &rng);
      std::string line = "is-key ";
      bool first = true;
      for (AttributeIndex a : attrs.ToIndices()) {
        if (!first) line += ',';
        line += schema.name(a);
        first = false;
      }
      lines.push_back(std::move(line));
    } else if (pick < 8) {
      lines.push_back("min-key");
    } else {
      AttributeSet attrs = AttributeSet::RandomOfSize(m, 2, &rng);
      std::string line = "separation ";
      bool first = true;
      for (AttributeIndex a : attrs.ToIndices()) {
        if (!first) line += ',';
        line += schema.name(a);
        first = false;
      }
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

struct ConnResult {
  std::vector<double> latency_ns;
  size_t mismatches = 0;
  bool io_error = false;
};

/// One open-loop connection: a sender thread walks the fixed schedule,
/// the calling thread receives and timestamps. Responses arrive in
/// request order (server guarantee for admitted lines).
void RunConnection(uint16_t port, const std::vector<std::string>& lines,
                   const std::vector<std::string>& expected,
                   Clock::time_point start, double interval_ns,
                   ConnResult* out) {
  auto fd = OpenClientSocket({"127.0.0.1", port}, /*recv_timeout_ms=*/30000);
  if (!fd.ok()) {
    out->io_error = true;
    return;
  }
  BlockingLineClient client(std::move(*fd));
  auto greeting = client.RecvLine();
  if (!greeting.ok()) {
    out->io_error = true;
    return;
  }

  std::thread sender([&] {
    for (size_t i = 0; i < lines.size(); ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::nanoseconds(
                      static_cast<int64_t>(interval_ns * i)));
      if (!client.SendLine(lines[i]).ok()) return;
    }
  });

  out->latency_ns.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    auto got = client.RecvLine();
    Clock::time_point now = Clock::now();
    if (!got.ok()) {
      out->io_error = true;
      break;
    }
    if (*got != expected[i]) ++out->mismatches;
    Clock::time_point scheduled =
        start + std::chrono::nanoseconds(
                    static_cast<int64_t>(interval_ns * i));
    out->latency_ns.push_back(
        std::chrono::duration<double, std::nano>(now - scheduled).count());
  }
  sender.join();
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(q * (sorted.size() - 1));
  return sorted[index];
}

int Run(int argc, char** argv) {
  std::string json_path;
  size_t conns = 4;
  size_t per_conn = 500;
  double rps = 2000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--conns") == 0 && i + 1 < argc) {
      uint64_t v = 0;
      if (!ParseUint64Flag("--conns", argv[++i], &v)) return 2;
      conns = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--per-conn") == 0 && i + 1 < argc) {
      uint64_t v = 0;
      if (!ParseUint64Flag("--per-conn", argv[++i], &v)) return 2;
      per_conn = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--rps") == 0 && i + 1 < argc) {
      if (!ParseDoubleFlag("--rps", argv[++i], 0.0, 1e9,
                           /*min_exclusive=*/true, /*max_exclusive=*/false,
                           "(0, 1e9]", &rps)) {
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve_net [--json PATH] [--conns C] "
                   "[--rps R] [--per-conn N]\n");
      return 2;
    }
  }
  if (conns == 0 || per_conn == 0 || rps <= 0.0) {
    std::fprintf(stderr, "conns, per-conn, and rps must be positive\n");
    return 2;
  }

  // Snapshot + engine + server.
  Rng rng(17);
  Dataset data = MakeTable(20000, &rng);
  PipelineOptions popts;
  popts.eps = 0.001;
  popts.backend = FilterBackend::kBitset;
  Rng prng(29);
  auto result = DiscoveryPipeline(popts).Run(data, &prng);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n", result.status().ToString().c_str());
    return 1;
  }
  auto snapshot = SnapshotFromPipelineResult(*result, popts.eps);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  SnapshotStore store;
  if (!store.Publish(std::move(*snapshot)).ok()) return 1;
  QueryEngine engine(&store, QueryEngineOptions{});  // expected answers

  // Per-connection workloads and the answers the server must produce.
  std::vector<std::vector<std::string>> workloads, expectations;
  for (size_t c = 0; c < conns; ++c) {
    workloads.push_back(MakeWorkload(data.schema(), per_conn, 1000 + c));
    std::vector<QueryRequest> requests;
    for (const std::string& line : workloads.back()) {
      auto request = ParseQueryRequest(line, data.schema());
      if (!request.ok()) {
        std::fprintf(stderr, "workload line does not parse: %s\n",
                     line.c_str());
        return 1;
      }
      requests.push_back(std::move(*request));
    }
    std::vector<QueryResponse> responses = engine.ExecuteBatch(requests);
    std::vector<std::string> expected;
    for (size_t i = 0; i < requests.size(); ++i) {
      expected.push_back(
          EncodeResponseLine(requests[i], responses[i], data.schema()));
    }
    expectations.push_back(std::move(expected));
  }

  // One measured pass: fresh server over the store, open-loop load,
  // pooled quantiles. `instrumented` attaches an
  // external registry and 1-in-64 request tracing (discarded sink) —
  // the production observability configuration.
  struct PassResult {
    double p50 = 0, p99 = 0, p999 = 0, qps = 0;
  };
  auto run_pass = [&](bool instrumented, PassResult* pr) -> int {
    ServerOptions sopts;
    sopts.listen = {"127.0.0.1", 0};
    // Generous admission caps: this bench measures latency under load
    // the server can admit; sheds would poison the latency pool.
    sopts.max_pending_per_conn = per_conn + 1;
    MetricsRegistry registry;
    if (instrumented) {
      sopts.metrics = &registry;
      sopts.trace_sample = 64;
      sopts.trace_sink = [](const std::string&) {};  // format, then drop
    }
    ServeServer server(&store, data.schema(), QueryEngineOptions{}, sopts);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
      return 1;
    }

    double interval_ns = 1e9 * static_cast<double>(conns) / rps;
    std::vector<ConnResult> results(conns);
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        RunConnection(server.port(), workloads[c], expectations[c], start,
                      interval_ns, &results[c]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    Clock::time_point end = Clock::now();
    server.Shutdown();
    server.Join();

    std::vector<double> pooled;
    size_t mismatches = 0;
    bool io_error = false;
    for (const ConnResult& r : results) {
      pooled.insert(pooled.end(), r.latency_ns.begin(), r.latency_ns.end());
      mismatches += r.mismatches;
      io_error |= r.io_error;
    }
    if (io_error || pooled.size() != conns * per_conn) {
      std::fprintf(stderr, "bench I/O failure: %zu/%zu responses\n",
                   pooled.size(), conns * per_conn);
      return 1;
    }
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "SELF-CHECK FAILED: %zu response(s) diverged from the "
                   "direct engine encoding\n",
                   mismatches);
      return 1;
    }
    std::sort(pooled.begin(), pooled.end());

    double wall_s = std::chrono::duration<double>(end - start).count();
    pr->qps = static_cast<double>(pooled.size()) / wall_s;
    pr->p50 = Quantile(pooled, 0.50);
    pr->p99 = Quantile(pooled, 0.99);
    pr->p999 = Quantile(pooled, 0.999);
    return 0;
  };

  PassResult idle, on;
  if (int rc = run_pass(/*instrumented=*/false, &idle)) return rc;
  if (int rc = run_pass(/*instrumented=*/true, &on)) return rc;

  BenchJsonWriter json;
  std::printf("serve_net: %zu conns x %zu reqs, offered %.0f req/s per "
              "pass\n",
              conns, per_conn, rps);
  struct Q {
    const char* name;
    double PassResult::* field;
  } quantiles[] = {{"p50", &PassResult::p50},
                   {"p99", &PassResult::p99},
                   {"p999", &PassResult::p999}};
  for (const Q& q : quantiles) {
    double idle_ns = idle.*(q.field);
    double on_ns = on.*(q.field);
    double overhead =
        idle_ns > 0 ? 100.0 * (on_ns - idle_ns) / idle_ns : 0.0;
    std::printf("  %-5s idle %10.1f us   instrumented %10.1f us   "
                "overhead %+6.2f%%\n",
                q.name, idle_ns / 1e3, on_ns / 1e3, overhead);
    json.Add("serve_net_latency",
             {{"quantile", q.name}, {"instrumentation", "idle"}}, idle_ns,
             idle.qps);
    json.Add("serve_net_latency",
             {{"quantile", q.name}, {"instrumentation", "on"}}, on_ns,
             on.qps);
  }
  if (!json.WriteToFile(json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace qikey

int main(int argc, char** argv) { return qikey::Run(argc, argv); }
