#include "core/map_cache.h"

#include <atomic>
#include <cctype>
#include <cstdlib>

#include "common/json_writer.h"
#include "core/map_builder.h"

namespace blaeu::core {

namespace {

uint64_t MixString(uint64_t h, const std::string& s) {
  h = HashMix(h, s.size());
  for (char c : s) h = HashMix(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

uint64_t FingerprintStrings(const std::vector<std::string>& strings) {
  uint64_t h = kFnvOffset;
  h = HashMix(h, strings.size());
  for (const std::string& s : strings) h = MixString(h, s);
  return h;
}

uint64_t FingerprintTable(const monet::Table& table) {
  uint64_t h = kFnvOffset;
  h = HashMix(h, table.num_rows());
  h = HashMix(h, table.num_columns());
  for (const auto& field : table.schema().fields()) {
    h = MixString(h, field.name);
    h = HashMix(h, static_cast<uint64_t>(field.type));
  }
  return h;
}

// Output-affecting knobs only, enumerated explicitly. Deliberately
// excluded: the thread count and the observability sinks, which never
// change the map, so two runs differing only in them share a cache entry.
uint64_t FingerprintMapOptions(const MapOptions& o) {
  uint64_t h = kFnvOffset;
  h = HashMix(h, o.sample_size);
  h = HashMix(h, o.k_max);
  h = HashMix(h, o.fixed_k);
  return h;
}

uint64_t MapCacheKey::Hash() const {
  uint64_t h = kFnvOffset;
  h = MixString(h, table_name);
  h = HashMix(h, table_version);
  h = HashMix(h, table_fp);
  h = HashMix(h, selection_fp);
  h = HashMix(h, columns_fp);
  h = HashMix(h, options_fp);
  h = HashMix(h, seed);
  return h;
}

size_t EstimateMapBytes(const DataMap& map) {
  auto conjunction_bytes = [](const monet::Conjunction& c) {
    size_t bytes = sizeof(monet::Conjunction);
    for (const monet::Condition& cond : c.conditions()) {
      bytes += sizeof(monet::Condition) + cond.column.capacity() + 32;
      for (const std::string& s : cond.set) bytes += s.capacity() + 1;
    }
    return bytes;
  };
  size_t bytes = sizeof(DataMap) + map.algorithm.capacity();
  for (const std::string& c : map.active_columns) bytes += c.capacity() + 1;
  for (const MapRegion& r : map.regions) {
    bytes += sizeof(MapRegion) + r.children.size() * sizeof(int);
    bytes += conjunction_bytes(r.edge) + conjunction_bytes(r.predicate);
  }
  return bytes;
}

MapCache::MapCache(size_t budget_bytes, obs::MetricsRegistry* metrics,
                   obs::Tracer* tracer, obs::FlightRecorder* flight)
    : budget_bytes_(budget_bytes),
      metrics_(metrics != nullptr ? metrics : &obs::MetricsRegistry::Global()),
      tracer_(tracer != nullptr ? tracer : &obs::Tracer::Global()),
      flight_(flight != nullptr ? flight : &obs::FlightRecorder::Global()) {}

size_t MapCache::BudgetFromEnv() {
  const char* env = std::getenv("BLAEU_CACHE_BYTES");
  // The whole value must be digits: strtoull alone reads "64MB" as 64 and
  // wraps "-1" to 2^64 - 1.
  if (env == nullptr || !std::isdigit(static_cast<unsigned char>(*env))) {
    return kDefaultBudgetBytes;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  return *end == '\0' ? static_cast<size_t>(parsed) : kDefaultBudgetBytes;
}

uint64_t MapCache::NextSessionId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const DataMap> MapCache::Lookup(const MapCacheKey& key,
                                                uint64_t session_id) {
  obs::Span span(tracer_, "core.cache.lookup", metrics_);
  std::shared_ptr<const DataMap> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key.Hash());
    if (it != index_.end() && it->second->key == key) {
      // Refresh recency and ownership: the most recent user keeps the entry
      // alive across other sessions closing.
      entries_.splice(entries_.begin(), entries_, it->second);
      it->second->session_id = session_id;
      found = it->second->map;
    }
  }
  span.SetAttr("hit", found != nullptr ? 1 : 0);
  metrics_->counter(found != nullptr ? "core.cache.hits"
                                     : "core.cache.misses")
      ->Increment();
  flight_->Record(found != nullptr ? obs::FlightEventKind::kCacheHit
                                   : obs::FlightEventKind::kCacheMiss,
                  "core.cache.lookup", {{"table", key.table_name}});
  return found;
}

void MapCache::Insert(const MapCacheKey& key, uint64_t session_id,
                      std::shared_ptr<const DataMap> map) {
  if (map == nullptr || budget_bytes_ == 0) return;
  Entry entry;
  entry.key = key;
  entry.session_id = session_id;
  entry.bytes = EstimateMapBytes(*map) + sizeof(Entry);
  entry.map = std::move(map);
  if (entry.bytes > budget_bytes_) return;  // would evict everything else
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t hash = key.Hash();
    auto it = index_.find(hash);
    // An existing entry under this hash (same key, or an astronomically
    // unlikely collision) is replaced rather than duplicated.
    if (it != index_.end()) RemoveLocked(it->second);
    bytes_ += entry.bytes;
    entries_.push_front(std::move(entry));
    index_[hash] = entries_.begin();
    EnforceBudgetLocked();
    PublishGaugesLocked();
  }
  metrics_->counter("core.cache.inserts")->Increment();
}

int64_t MapCache::EvictIf(const std::function<bool(const Entry&)>& drop) {
  int64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto next = std::next(it);
      if (drop(*it)) {
        RemoveLocked(it);
        dropped++;
      }
      it = next;
    }
    PublishGaugesLocked();
  }
  if (dropped > 0) {
    metrics_->counter("core.cache.invalidations")->Add(dropped);
  }
  return dropped;
}

void MapCache::EvictSession(uint64_t session_id) {
  const int64_t dropped = EvictIf(
      [&](const Entry& e) { return e.session_id == session_id; });
  if (dropped > 0) {
    flight_->Record(obs::FlightEventKind::kCacheEvict, "core.cache.evict_session",
                    {{"session", std::to_string(session_id)},
                     {"entries_dropped", std::to_string(dropped)}});
  }
}

void MapCache::EvictTable(const std::string& table_name) {
  obs::Span span(tracer_, "core.cache.invalidate", metrics_);
  span.SetAttr("table", table_name);
  const int64_t dropped = EvictIf(
      [&](const Entry& e) { return e.key.table_name == table_name; });
  span.SetAttr("entries_dropped", dropped);
  if (dropped > 0) {
    flight_->Record(obs::FlightEventKind::kCacheEvict, "core.cache.invalidate",
                    {{"table", table_name},
                     {"entries_dropped", std::to_string(dropped)}});
  }
}

void MapCache::EnforceBudgetLocked() {
  while (bytes_ > budget_bytes_ && !entries_.empty()) {
    RemoveLocked(std::prev(entries_.end()));
    metrics_->counter("core.cache.evictions")->Increment();
  }
}

void MapCache::RemoveLocked(std::list<Entry>::iterator it) {
  bytes_ -= it->bytes;
  index_.erase(it->key.Hash());
  entries_.erase(it);
}

void MapCache::PublishGaugesLocked() {
  metrics_->gauge("core.cache.bytes")->Set(static_cast<double>(bytes_));
  metrics_->gauge("core.cache.entries")
      ->Set(static_cast<double>(entries_.size()));
}

MapCacheStats MapCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MapCacheStats out;
  out.entries = entries_.size();
  out.bytes = bytes_;
  out.budget_bytes = budget_bytes_;
  return out;
}

std::string MapCache::StatsJson() const {
  MapCacheStats s = stats();
  JsonWriter w;
  w.BeginObject();
  w.KV("entries", s.entries)
      .KV("bytes", s.bytes)
      .KV("budget_bytes", s.budget_bytes);
  w.EndObject();
  return w.str();
}

}  // namespace blaeu::core
