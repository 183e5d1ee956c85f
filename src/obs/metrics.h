#ifndef QIKEY_OBS_METRICS_H_
#define QIKEY_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "obs/histogram.h"
#include "util/mutex.h"

namespace qikey {

/// \brief Monotonic event counter, sharded across cache lines.
///
/// `Increment` is one relaxed `fetch_add` on a per-thread slot (8
/// slots, each on its own cache line), so concurrent writers from the
/// serve shards and pool tasks do not bounce a shared line.
/// `value()` sums the slots; it is exact once writers quiesce and
/// never under-counts completed increments.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    slots_[SlotIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  static constexpr size_t kSlots = 8;

  /// Stable per-thread slot: threads round-robin over the slots in
  /// creation order, so a single-writer counter always hits one line.
  static size_t SlotIndex();

  Slot slots_[kSlots];
};

/// \brief Last-written-value gauge (queue depths, buffer bytes).
///
/// Written from any thread and read from any; all accesses are relaxed
/// atomics.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief One consistent read of every registered metric.
///
/// Map-keyed by metric name, so iteration (and the rendered JSON) is
/// deterministically sorted.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Renders the snapshot as one line of JSON:
  ///   {"counters":{...},"gauges":{...},"histograms":{"x_ns":
  ///    {"count":..,"sum":..,"p50":..,"p99":..,"p999":..,"max":..}}}
  /// Every value is an integer; keys are sorted — two snapshots of
  /// identical metric states render byte-identically.
  std::string RenderJson() const;
};

/// \brief Named registry over borrowed metric instances.
///
/// Components register their `Counter`/`Gauge`/`LatencyHistogram`
/// members (or a read callback for values they derive on demand);
/// the registry takes no ownership and every registered pointer or
/// callback must outlive it. Registering an existing name replaces
/// the previous entry (re-created components re-register cleanly).
/// Registration and snapshotting take a mutex; the hot recording path
/// never touches the registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void RegisterCounter(const std::string& name, const Counter* counter);
  void RegisterCounterFn(const std::string& name,
                         std::function<uint64_t()> fn);
  void RegisterGauge(const std::string& name, const Gauge* gauge);
  void RegisterGaugeFn(const std::string& name, std::function<int64_t()> fn);
  void RegisterHistogram(const std::string& name,
                         const LatencyHistogram* histogram);
  void RegisterHistogramFn(const std::string& name,
                           std::function<HistogramSnapshot()> fn);

  /// Reads every registered metric under the registry lock.
  MetricsSnapshot SnapshotAll() const;

  /// SnapshotAll().RenderJson().
  std::string RenderJson() const;

 private:
  /// Registry capability: guards the six name→instrument maps below.
  /// Only registration and snapshotting take it — recording into an
  /// instrument never does (the instruments are internally lock-free).
  mutable Mutex mu_;
  std::map<std::string, const Counter*> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::function<uint64_t()>> counter_fns_
      GUARDED_BY(mu_);
  std::map<std::string, const Gauge*> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::function<int64_t()>> gauge_fns_ GUARDED_BY(mu_);
  std::map<std::string, const LatencyHistogram*> histograms_ GUARDED_BY(mu_);
  std::map<std::string, std::function<HistogramSnapshot()>> histogram_fns_
      GUARDED_BY(mu_);
};

}  // namespace qikey

#endif  // QIKEY_OBS_METRICS_H_
