// Shared plumbing of the qbench program: clocks, /proc readers, the
// result-object writer and the in-memory span recorder.
#ifndef QBENCH_UTIL_H_
#define QBENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "logic.h"

namespace qbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time (user + system) of the calling thread, in microseconds.
inline double ThreadCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_utime.tv_sec * 1e6 + usage.ru_utime.tv_usec +
         usage.ru_stime.tv_sec * 1e6 + usage.ru_stime.tv_usec;
}

/// CPU time (user + system) of this whole process, in microseconds.
inline double ProcessCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec * 1e6 + usage.ru_utime.tv_usec +
         usage.ru_stime.tv_sec * 1e6 + usage.ru_stime.tv_usec;
}

/// Nanoseconds every thread of process `pid` has spent on a CPU,
/// summed from /proc/<pid>/task/*/schedstat. -1 when unreadable.
inline int64_t ProcessRunNs(int pid) {
  std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return -1;
  int64_t total = 0;
  while (dirent* entry = readdir(d)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + entry->d_name + "/schedstat");
    int64_t run_ns = 0;
    if (in >> run_ns) total += run_ns;
  }
  closedir(d);
  return total;
}

/// A `Vm*:` field of /proc/<pid>/status in MiB ("self" for this
/// process). -1 when missing.
inline double ProcStatusMb(const std::string& pid, const std::string& key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

/// All lines of a text file (without newlines).
inline std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

/// Flat JSON object writer: numbers keep every digit measured.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + JsonEscape(value) + "\"");
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + JsonEscape(key) + "\":" + json;
    return *this;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Records spans in memory; written out once, at the end of a run.
class Tracer {
 public:
  /// Opens a span and returns its id.
  int Begin(const std::string& name, int parent, uint64_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_ns = NowNs(); }

  /// Wall time of a closed span, in nanoseconds.
  int64_t WallNs(int id) const {
    return spans_[id].end_ns - spans_[id].start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Spans as a JSON array, with each span's self time.
  std::string RenderJson() const {
    std::vector<int64_t> self = SelfTimes(spans_);
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += JsonObject()
                 .Int("id", i)
                 .Str("name", s.name)
                 .Raw("parent", std::to_string(s.parent))
                 .Int("request", s.request)
                 .Raw("start_ns", std::to_string(s.start_ns))
                 .Raw("end_ns", std::to_string(s.end_ns))
                 .Raw("self_ns", std::to_string(self[i]))
                 .Render();
    }
    return out + "]";
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on `Close` or destruction.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, int parent,
        uint64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~Scope() { Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

  /// Closes the span (once) and returns its wall time in nanoseconds.
  int64_t Close() {
    if (open_) tracer_->End(id_);
    open_ = false;
    return tracer_->WallNs(id_);
  }

 private:
  Tracer* tracer_;
  int id_;
  bool open_ = true;
};

}  // namespace qbench

#endif  // QBENCH_UTIL_H_
