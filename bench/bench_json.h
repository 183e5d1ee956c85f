#ifndef QIKEY_BENCH_BENCH_JSON_H_
#define QIKEY_BENCH_BENCH_JSON_H_

// Shared machine-readable output for the standalone benches: collect
// (name, params, ns/op, throughput) records and write one BENCH_*.json
// file for CI to archive, e.g.
//
//   {"benchmarks": [
//     {"name": "env", "params": {"cpu_model": "...", "isa": "avx,avx2",
//      "nproc": "4"}, "ns_per_op": 0.000, "ops_per_sec": 0.000},
//     {"name": "monitor_update", "params": {"backend": "tuple"},
//      "ns_per_op": 1234.5, "ops_per_sec": 810045.2}
//   ]}
//
// The first row, `env`, names the host the file was measured on: CPU
// model, hardware threads and the ISA flags qbench's host stamp reads
// (qbench/qbench.cc, `RunEnv`). ci/check_bench_regression.py compares a
// run with a baseline only when their env rows match.
//
// Header-only on purpose: benches are standalone main() programs and
// this keeps them that way.

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace qikey {

class BenchJsonWriter {
 public:
  using Params = std::vector<std::pair<std::string, std::string>>;

  /// Records one result. `ns_per_op` and `ops_per_sec` describe the
  /// same measurement from both directions so consumers don't have to
  /// re-derive either.
  void Add(const std::string& name, const Params& params, double ns_per_op,
           double ops_per_sec) {
    Entry entry;
    entry.name = name;
    entry.params = params;
    entry.ns_per_op = ns_per_op;
    entry.ops_per_sec = ops_per_sec;
    entries_.push_back(std::move(entry));
  }

  std::string ToJson() const {
    std::vector<Entry> entries = {Entry{"env", HostEnv()}};
    entries.insert(entries.end(), entries_.begin(), entries_.end());
    std::string out = "{\"benchmarks\": [\n";
    for (size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      out += "  {\"name\": " + Quote(e.name) + ", \"params\": {";
      for (size_t p = 0; p < e.params.size(); ++p) {
        out += Quote(e.params[p].first) + ": " + Quote(e.params[p].second);
        if (p + 1 < e.params.size()) out += ", ";
      }
      char numbers[96];
      std::snprintf(numbers, sizeof(numbers),
                    "}, \"ns_per_op\": %.3f, \"ops_per_sec\": %.3f}",
                    e.ns_per_op, e.ops_per_sec);
      out += numbers;
      if (i + 1 < entries.size()) out += ",";
      out += "\n";
    }
    out += "]}\n";
    return out;
  }

  /// Writes the collected records; returns false (with a message on
  /// stderr) if the file cannot be written. No-op when `path` is empty.
  bool WriteToFile(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write bench json to %s\n", path.c_str());
      return false;
    }
    std::string json = ToJson();
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (written != json.size()) {
      std::fprintf(stderr, "short write to %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  struct Entry {
    std::string name;
    Params params;
    double ns_per_op = 0.0;
    double ops_per_sec = 0.0;
  };

  /// The env row's params, read as qbench's `RunEnv` reads them.
  static Params HostEnv() {
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
    for (const char* f : {"sse4_2", "avx", "avx2", "bmi2", "popcnt",
                          "avx512f", "avx512bw", "avx512vl",
                          "avx512_vpopcntdq"}) {
      if (flags.count(f) == 0) continue;
      if (!isa.empty()) isa += ',';
      isa += f;
    }
    return {{"cpu_model", model},
            {"isa", isa},
            {"nproc", std::to_string(std::thread::hardware_concurrency())}};
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
    return out;
  }

  std::vector<Entry> entries_;
};

}  // namespace qikey

#endif  // QIKEY_BENCH_BENCH_JSON_H_
