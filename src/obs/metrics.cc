#include "obs/metrics.h"

#include "util/jsonw.h"

namespace qikey {

size_t Counter::SlotIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kSlots;
  return slot;
}

void MetricsRegistry::RegisterCounter(const std::string& name,
                                      const Counter* counter) {
  MutexLock lock(mu_);
  counter_fns_.erase(name);
  counters_[name] = counter;
}

void MetricsRegistry::RegisterCounterFn(const std::string& name,
                                        std::function<uint64_t()> fn) {
  MutexLock lock(mu_);
  counters_.erase(name);
  counter_fns_[name] = std::move(fn);
}

void MetricsRegistry::RegisterGauge(const std::string& name,
                                    const Gauge* gauge) {
  MutexLock lock(mu_);
  gauge_fns_.erase(name);
  gauges_[name] = gauge;
}

void MetricsRegistry::RegisterGaugeFn(const std::string& name,
                                      std::function<int64_t()> fn) {
  MutexLock lock(mu_);
  gauges_.erase(name);
  gauge_fns_[name] = std::move(fn);
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        const LatencyHistogram* histogram) {
  MutexLock lock(mu_);
  histogram_fns_.erase(name);
  histograms_[name] = histogram;
}

void MetricsRegistry::RegisterHistogramFn(
    const std::string& name, std::function<HistogramSnapshot()> fn) {
  MutexLock lock(mu_);
  histograms_.erase(name);
  histogram_fns_[name] = std::move(fn);
}

MetricsSnapshot MetricsRegistry::SnapshotAll() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, fn] : counter_fns_) {
    snap.counters[name] = fn();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, fn] : gauge_fns_) {
    snap.gauges[name] = fn();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  for (const auto& [name, fn] : histogram_fns_) {
    snap.histograms[name] = fn();
  }
  return snap;
}

std::string MetricsRegistry::RenderJson() const {
  return SnapshotAll().RenderJson();
}

std::string MetricsSnapshot::RenderJson() const {
  std::string out;
  out.reserve(1024);
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(name, &out);
    out += ':';
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(name, &out);
    out += ':';
    out += std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(name, &out);
    out += ":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += std::to_string(h.sum);
    out += ",\"p50\":";
    out += std::to_string(h.ValueAtQuantile(0.50));
    out += ",\"p99\":";
    out += std::to_string(h.ValueAtQuantile(0.99));
    out += ",\"p999\":";
    out += std::to_string(h.ValueAtQuantile(0.999));
    out += ",\"max\":";
    out += std::to_string(h.max);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace qikey
