// Process metrics: named counters, gauges and log-scale latency histograms.
//
// The registry is the measurement side of the observability subsystem (the
// tracer in obs/trace.h is the timeline side). Metrics are cheap enough to
// leave on in production builds: counters are single relaxed atomics, and
// histograms take one short critical section per observation.
//
// Naming convention (see ROADMAP.md "Observability"):
//   <layer>.<component>.<metric>[_<unit>]
// e.g. "core.map.build_seconds", "cluster.pam.swap_iterations",
// "monet.csv.rows_read". Durations are always seconds, sizes always rows.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace blaeu::obs {

/// \brief Monotonically increasing integer metric (events, rows, iterations).
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Last-write-wins floating-point metric (sizes, ratios, levels).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Aggregated view of a histogram at one point in time.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// \brief Log-scale histogram for positive measurements (latencies, sizes).
///
/// Buckets are powers of 2 starting at 1 nanosecond-equivalent (1e-9), so
/// the whole range from nanoseconds to hours fits in 64 buckets with a
/// constant ~2x relative error on the reported quantiles. Quantiles are
/// estimated at the geometric midpoint of the containing bucket, clamped to
/// the observed min/max.
class Histogram {
 public:
  void Observe(double value);

  HistogramSnapshot Snapshot() const;

 private:
  static constexpr size_t kNumBuckets = 64;
  static constexpr double kFirstBound = 1e-9;

  static size_t BucketIndex(double value);
  double QuantileLocked(double q) const;

  mutable std::mutex mu_;
  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief Point-in-time copy of every metric in a registry — what the
/// exporters (obs/export.h) consume.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// \brief Named metric families. Thread-safe; metric pointers returned are
/// stable for the registry's lifetime, so hot paths can look up once and
/// keep the pointer.
///
/// `Global()` is the process-wide instance that instrumentation in the
/// library reports to by default; tests inject their own registry through
/// the options structs (e.g. core::MapOptions::metrics) to observe a single
/// operation in isolation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-global registry (never destroyed).
  static MetricsRegistry& Global();

  /// Returns the named metric, creating it on first use.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Copies every metric's current value (histograms as snapshots).
  MetricsSnapshot Snapshot() const;

  /// Serializes every metric:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,...}}}
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace blaeu::obs
