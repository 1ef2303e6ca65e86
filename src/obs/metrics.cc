#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/json_writer.h"

namespace blaeu::obs {

size_t Histogram::BucketIndex(double value) {
  if (!(value > kFirstBound)) return 0;
  // Bucket i covers (kFirstBound * 2^(i-1), kFirstBound * 2^i].
  double ratio = value / kFirstBound;
  size_t idx = static_cast<size_t>(std::ceil(std::log2(ratio)));
  return std::min(idx, kNumBuckets - 1);
}

void Histogram::Observe(double value) {
  if (std::isnan(value)) return;
  if (value < 0.0) value = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  buckets_[BucketIndex(value)]++;
  sum_ += value;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_++;
}

double Histogram::QuantileLocked(double q) const {
  // Degenerate cases first, exactly: an empty histogram has no quantiles
  // (0 by convention) and a single sample IS every quantile — the bucket
  // midpoint must not leak through for either.
  if (count_ == 0) return 0.0;
  if (count_ == 1 || min_ == max_) return min_;
  // Rank of the q-quantile (1-based, nearest-rank method).
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::max<uint64_t>(1, std::min(rank, count_));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Geometric midpoint of bucket i, clamped to what was actually seen.
      double hi = kFirstBound * std::ldexp(1.0, static_cast<int>(i));
      double lo = i == 0 ? 0.0 : hi / 2.0;
      double mid = i == 0 ? hi / 2.0 : std::sqrt(lo * hi);
      return std::max(min_, std::min(max_, mid));
    }
  }
  return max_;
}

HistogramSnapshot Histogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot snap;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  snap.p50 = QuantileLocked(0.50);
  snap.p95 = QuantileLocked(0.95);
  snap.p99 = QuantileLocked(0.99);
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumented destructors may run after static
  // teardown would have destroyed a function-local registry.
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) w.KV(name, c->value());
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) w.KV(name, g->value());
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot s = h->Snapshot();
    w.Key(name).BeginObject();
    w.KV("count", static_cast<int64_t>(s.count));
    w.KV("sum", s.sum);
    w.KV("mean", s.mean());
    w.KV("min", s.min);
    w.KV("max", s.max);
    w.KV("p50", s.p50);
    w.KV("p95", s.p95);
    w.KV("p99", s.p99);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace blaeu::obs
