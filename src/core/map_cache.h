// Navigation-aware map cache: memoizes whole maps across Zoom / Project /
// rollback so re-visiting a navigation state is O(1) and a serving layer
// does not redo identical work per interaction.
//
// ## Cache key contract
//
// A map is a pure function of
//   (table identity, selection, projected columns, build options, seed),
// so the key fingerprints exactly those five things:
//   - table_name + table_version: the Explorer bumps the version every time
//     a name is (re-)loaded, which invalidates prior entries;
//   - table_fp: schema shape (rows, columns, names, types), a guard against
//     two distinct tables sharing a name/version (standalone sessions);
//   - selection_fp: SelectionVector::Fingerprint() over the row ids;
//   - columns_fp: FNV over the projected column names, order-sensitive;
//   - options_fp: every knob of MapOptions that can change the output
//     (sample_size, k_max, fixed_k). Thread budgets and observability sinks
//     are deliberately excluded — the map is bit-identical at any thread
//     count, so entries are shared across them — and so are the pipeline's
//     constants, such as the k sweep's lower end 2, which no option sets;
//   - seed: the per-map seed. Sessions derive it from (session seed,
//     selection_fp, columns_fp), so rebuilding the same navigation state
//     cold produces the same seed, sample and map as a cache hit.
//
// A hit (Lookup) returns the map Insert stored under the key, which is the
// exact map a cold build of the same key produces.
//
// ## Observability (ROADMAP naming convention)
//
// Counters: core.cache.hits, core.cache.misses, core.cache.inserts,
// core.cache.evictions, core.cache.invalidations. Gauges: core.cache.bytes,
// core.cache.entries. Spans: core.cache.lookup (attr hit=0|1),
// core.cache.invalidate, each observing its <name>_seconds histogram.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/map.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace blaeu::core {

struct MapOptions;

/// Order-sensitive FNV-1a mix step, the hashing primitive behind every
/// cache fingerprint.
inline uint64_t HashMix(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a fingerprint of a string list (length- and order-sensitive).
uint64_t FingerprintStrings(const std::vector<std::string>& strings);

/// Schema-shape fingerprint of a table (row count, column names and types).
/// A guard component of the cache key against two distinct tables sharing a
/// (name, version) pair, NOT a content hash — content identity is the
/// Explorer's job via table_version.
uint64_t FingerprintTable(const monet::Table& table);

/// Fingerprint of every output-affecting knob of MapOptions: sample_size,
/// k_max and fixed_k. Excludes num_threads and the observability sinks,
/// which never change the map, and the seed, which is a separate key
/// component.
uint64_t FingerprintMapOptions(const MapOptions& options);

/// \brief The full identity of one map build (see the contract above).
struct MapCacheKey {
  std::string table_name;
  uint64_t table_version = 0;
  uint64_t table_fp = 0;
  uint64_t selection_fp = 0;
  uint64_t columns_fp = 0;
  uint64_t options_fp = 0;
  uint64_t seed = 0;

  bool operator==(const MapCacheKey& other) const {
    return table_version == other.table_version &&
           table_fp == other.table_fp &&
           selection_fp == other.selection_fp &&
           columns_fp == other.columns_fp &&
           options_fp == other.options_fp && seed == other.seed &&
           table_name == other.table_name;
  }

  /// 64-bit digest of all components.
  uint64_t Hash() const;
};

/// \brief Point-in-time cache size. The cache's traffic (hits, misses,
/// inserts, evictions, invalidations) is counted in its registry only.
struct MapCacheStats {
  size_t entries = 0;
  size_t bytes = 0;
  size_t budget_bytes = 0;
};

/// Rough heap footprint of a map, for budgeting.
size_t EstimateMapBytes(const DataMap& map);

/// \brief Thread-safe LRU cache of built maps.
///
/// Shared by every session of an Explorer (and injectable into standalone
/// sessions via SessionOptions::cache); concurrent sessions may hit each
/// other's entries. Entries are tagged with the inserting (or, after a hit,
/// the most recent using) session so CloseSession can release them, and
/// with their table name so reloading a table invalidates them.
class MapCache {
 public:
  static constexpr size_t kDefaultBudgetBytes = 64ull << 20;  // 64 MiB

  /// `metrics`/`tracer`/`flight` default to the process-global instances.
  explicit MapCache(size_t budget_bytes = kDefaultBudgetBytes,
                    obs::MetricsRegistry* metrics = nullptr,
                    obs::Tracer* tracer = nullptr,
                    obs::FlightRecorder* flight = nullptr);

  /// The budget of the cache a Session or Explorer creates:
  /// BLAEU_CACHE_BYTES when its whole value is decimal digits (0 keeps no
  /// map), else kDefaultBudgetBytes.
  static size_t BudgetFromEnv();

  /// Process-unique id for a new session.
  static uint64_t NextSessionId();

  /// The cached map for `key`, or null. A hit refreshes LRU recency and
  /// re-tags the entry to `session_id`.
  std::shared_ptr<const DataMap> Lookup(const MapCacheKey& key,
                                        uint64_t session_id);

  /// Memoizes `map` under `key`, evicting least-recently-used entries over
  /// budget.
  void Insert(const MapCacheKey& key, uint64_t session_id,
              std::shared_ptr<const DataMap> map);

  /// Drops every entry owned by `session_id` (session close/destruction).
  void EvictSession(uint64_t session_id);

  /// Drops every entry for `table_name` — called when a table is re-loaded
  /// under the same name.
  void EvictTable(const std::string& table_name);

  MapCacheStats stats() const;

  /// JSON object with the sizes above (for Explorer::StatsReport()).
  std::string StatsJson() const;

 private:
  struct Entry {
    MapCacheKey key;
    uint64_t session_id = 0;
    size_t bytes = 0;
    std::shared_ptr<const DataMap> map;
  };

  /// Drops every entry `drop` selects and counts them as invalidations;
  /// returns how many.
  int64_t EvictIf(const std::function<bool(const Entry&)>& drop);
  /// Drops LRU entries until bytes_ <= budget_bytes_ (lock held).
  void EnforceBudgetLocked();
  void RemoveLocked(std::list<Entry>::iterator it);
  void PublishGaugesLocked();

  const size_t budget_bytes_;
  obs::MetricsRegistry* const metrics_;
  obs::Tracer* const tracer_;
  obs::FlightRecorder* const flight_;

  mutable std::mutex mu_;
  std::list<Entry> entries_;  ///< most-recently-used first
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
};

using MapCachePtr = std::shared_ptr<MapCache>;

}  // namespace blaeu::core
