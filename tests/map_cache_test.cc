// Unit tests for the navigation-aware map cache (core/map_cache.h): LRU
// byte budget, table-reload invalidation, session-lifecycle release and the
// env override.
#include "core/map_cache.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/explorer.h"
#include "core/navigation.h"
#include "workloads/gaussian.h"

namespace blaeu::core {
namespace {

SessionOptions FastOptions() {
  SessionOptions opt;
  opt.map.sample_size = 400;
  opt.map.k_max = 4;
  return opt;
}

monet::TablePtr MixtureTable(size_t rows = 600, uint64_t seed = 42) {
  workloads::MixtureSpec spec;
  spec.rows = rows;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  spec.seed = seed;
  return workloads::MakeGaussianMixture(spec).table;
}

TEST(MapCacheKeyTest, EqualityAndHashTrackComponents) {
  MapCacheKey a;
  a.table_name = "t";
  a.table_version = 1;
  a.selection_fp = 7;
  MapCacheKey b = a;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.selection_fp = 8;
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.Hash(), b.Hash());
  b = a;
  b.table_version = 2;
  EXPECT_FALSE(a == b);
}

TEST(MapCacheTest, FingerprintStringsIsOrderSensitive) {
  EXPECT_NE(FingerprintStrings({"a", "b"}), FingerprintStrings({"b", "a"}));
  EXPECT_NE(FingerprintStrings({"ab"}), FingerprintStrings({"a", "b"}));
  EXPECT_EQ(FingerprintStrings({"a", "b"}), FingerprintStrings({"a", "b"}));
}

TEST(MapCacheTest, BudgetFromEnvOverrides) {
  constexpr size_t kDefault = MapCache::kDefaultBudgetBytes;
  unsetenv("BLAEU_CACHE_BYTES");
  EXPECT_EQ(MapCache::BudgetFromEnv(), kDefault);
  setenv("BLAEU_CACHE_BYTES", "12345", 1);
  EXPECT_EQ(MapCache::BudgetFromEnv(), 12345u);
  setenv("BLAEU_CACHE_BYTES", "0", 1);
  EXPECT_EQ(MapCache::BudgetFromEnv(), 0u);
  // Anything but digits is the default: a unit suffix would otherwise read
  // "64MB" as a 64-byte budget that keeps no map, and "-1" as 2^64 - 1.
  for (const char* invalid : {"not-a-number", "64MB", "-1", "", " 5", "+5"}) {
    SCOPED_TRACE(std::string("BLAEU_CACHE_BYTES=") + invalid);
    setenv("BLAEU_CACHE_BYTES", invalid, 1);
    EXPECT_EQ(MapCache::BudgetFromEnv(), kDefault);
  }
  unsetenv("BLAEU_CACHE_BYTES");
}

TEST(MapCacheTest, InsertLookupRoundTrip) {
  obs::MetricsRegistry metrics;
  MapCache cache(MapCache::kDefaultBudgetBytes, &metrics);
  MapCacheKey key;
  key.table_name = "t";
  key.selection_fp = 1;
  auto map = std::make_shared<const DataMap>();
  cache.Insert(key, /*session_id=*/1, map);
  EXPECT_EQ(cache.Lookup(key, 1).get(), map.get());
  MapCacheKey other = key;
  other.selection_fp = 2;
  EXPECT_EQ(cache.Lookup(other, 1), nullptr);
  EXPECT_EQ(metrics.counter("core.cache.hits")->value(), 1);
  EXPECT_EQ(metrics.counter("core.cache.misses")->value(), 1);
  EXPECT_EQ(metrics.counter("core.cache.inserts")->value(), 1);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(MapCacheTest, LruEvictionRespectsByteBudget) {
  // Size the budget from a real entry so the test tracks EstimateMapBytes.
  DataMap probe;
  probe.regions.resize(3);
  const size_t one = EstimateMapBytes(probe) + 256;  // entry + overhead
  obs::MetricsRegistry metrics;
  obs::Counter* evictions = metrics.counter("core.cache.evictions");
  MapCache cache(3 * one, &metrics);
  auto key_for = [](uint64_t i) {
    MapCacheKey k;
    k.table_name = "t";
    k.selection_fp = i;
    return k;
  };
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Insert(key_for(i), 1, std::make_shared<const DataMap>(probe));
    EXPECT_LE(cache.stats().bytes, 3 * one);
  }
  MapCacheStats s = cache.stats();
  EXPECT_EQ(metrics.counter("core.cache.inserts")->value(), 8);
  EXPECT_GT(evictions->value(), 0);
  EXPECT_LE(s.bytes, s.budget_bytes);
  // The oldest entries are gone, the newest survive.
  EXPECT_EQ(cache.Lookup(key_for(0), 1), nullptr);
  EXPECT_NE(cache.Lookup(key_for(7), 1), nullptr);
  // A lookup refreshes recency: touch the LRU survivor, insert one more,
  // and the touched entry outlives the untouched one.
  const int64_t evictions_before = evictions->value();
  uint64_t oldest_alive = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    if (cache.Lookup(key_for(i), 1) != nullptr) {
      oldest_alive = i;
      break;
    }
  }
  ASSERT_NE(cache.Lookup(key_for(oldest_alive), 1), nullptr);
  cache.Insert(key_for(100), 1, std::make_shared<const DataMap>(probe));
  EXPECT_NE(cache.Lookup(key_for(oldest_alive), 1), nullptr);
  EXPECT_GT(evictions->value(), evictions_before);
}

TEST(MapCacheTest, OversizedEntryIsRejectedNotCached) {
  DataMap probe;
  probe.regions.resize(3);
  MapCache cache(/*budget_bytes=*/16);  // smaller than any real entry
  MapCacheKey key;
  key.table_name = "t";
  cache.Insert(key, 1, std::make_shared<const DataMap>(probe));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(key, 1), nullptr);
}

TEST(MapCacheTest, SessionCacheHitOnRollbackRevisit) {
  auto table = MixtureTable();
  obs::MetricsRegistry metrics;
  SessionOptions opt = FastOptions();
  opt.map.metrics = &metrics;
  obs::Counter* hits = metrics.counter("core.cache.hits");
  obs::Counter* misses = metrics.counter("core.cache.misses");
  auto session = Session::Start(table, "mixture", opt);
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();
  ASSERT_NE(s.cache(), nullptr);
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_FALSE(leaves.empty());
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  const int64_t misses_before = misses->value();
  ASSERT_TRUE(s.Rollback().ok());
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());  // identical navigation state
  EXPECT_GE(hits->value(), 1);
  EXPECT_EQ(misses->value(), misses_before);
}

TEST(MapCacheTest, DisabledCacheBuildsEveryTime) {
  auto table = MixtureTable();
  obs::MetricsRegistry metrics;
  SessionOptions opt = FastOptions();
  opt.cache_enabled = false;
  opt.map.metrics = &metrics;
  auto session = Session::Start(table, "mixture", opt);
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();
  EXPECT_EQ(s.cache(), nullptr);
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  ASSERT_TRUE(s.Rollback().ok());
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  EXPECT_EQ(metrics.counter("core.cache.hits")->value(), 0);
  // start + zoom + re-zoom
  EXPECT_EQ(metrics.counter("core.map.builds")->value(), 3);
}

TEST(MapCacheTest, ReloadingTableInvalidatesItsEntries) {
  obs::MetricsRegistry metrics;
  SessionOptions opt = FastOptions();
  opt.map.metrics = &metrics;
  Explorer explorer(opt);
  ASSERT_TRUE(explorer.LoadTable(MixtureTable(), "mixture").ok());
  auto session = explorer.OpenSession("mixture");
  ASSERT_TRUE(session.ok());
  ASSERT_NE(explorer.cache(), nullptr);
  EXPECT_GT(explorer.cache()->stats().entries, 0u);
  // Re-loading under the same name drops the cached maps AND bumps the
  // version, so a new session cannot hit stale entries either way.
  ASSERT_TRUE(explorer.LoadTable(MixtureTable(600, /*seed=*/7), "mixture").ok());
  MapCacheStats s = explorer.cache()->stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_GT(metrics.counter("core.cache.invalidations")->value(), 0);
  // The old session pointer is stale by contract; a fresh session works.
  auto reopened = explorer.OpenSession("mixture");
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT(explorer.cache()->stats().entries, 0u);
}

TEST(MapCacheTest, OpenCloseCyclesDoNotLeakCacheEntries) {
  Explorer explorer(FastOptions());
  ASSERT_TRUE(explorer.LoadTable(MixtureTable(), "mixture").ok());
  ASSERT_NE(explorer.cache(), nullptr);
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto session = explorer.OpenSession("mixture");
    ASSERT_TRUE(session.ok());
    Session* s = *session;
    std::vector<int> leaves = s->current().map.LeafIds();
    ASSERT_FALSE(leaves.empty());
    ASSERT_TRUE(s->Zoom(leaves[0]).ok());
    EXPECT_GT(explorer.cache()->stats().entries, 0u);
    ASSERT_TRUE(explorer.CloseSession("mixture").ok());
    // Closing the only session must release every map entry: a serving
    // layer cycling sessions cannot grow the cache without bound.
    MapCacheStats stats = explorer.cache()->stats();
    EXPECT_EQ(stats.entries, 0u) << "cycle " << cycle;
    EXPECT_EQ(stats.bytes, 0u) << "cycle " << cycle;
  }
}

TEST(MapCacheTest, MovedFromSessionReleasesNothing) {
  auto cache = std::make_shared<MapCache>();
  SessionOptions opt = FastOptions();
  opt.cache = cache;
  auto table = MixtureTable();
  auto started = Session::Start(table, "mixture", opt);
  ASSERT_TRUE(started.ok());
  size_t entries;
  {
    Session outer = std::move(started).ValueOrDie();
    entries = cache->stats().entries;
    EXPECT_GT(entries, 0u);
    {
      Session inner = std::move(outer);
      // The moved-from `outer` dies at the end of the enclosing scope; the
      // entries now belong to `inner` until it is destroyed.
      EXPECT_EQ(cache->stats().entries, entries);
    }
    EXPECT_EQ(cache->stats().entries, 0u);  // inner released them
  }
  EXPECT_EQ(cache->stats().entries, 0u);  // outer's death was a no-op
}

TEST(MapCacheTest, StatsJsonListsAllFields) {
  MapCache cache;
  std::string json = cache.StatsJson();
  for (const char* field : {"entries", "bytes", "budget_bytes"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(MapCacheTest, ExplorerStatsReportIncludesCacheSection) {
  Explorer explorer(FastOptions());
  ASSERT_TRUE(explorer.LoadTable(MixtureTable(), "mixture").ok());
  ASSERT_TRUE(explorer.OpenSession("mixture").ok());
  std::string report = explorer.StatsReport();
  EXPECT_NE(report.find("\"cache\""), std::string::npos);
  EXPECT_NE(
      report.find("\"sessions\":[{\"table\":\"mixture\",\"states\":1}]"),
      std::string::npos)
      << report;
  EXPECT_NE(report.find("budget_bytes"), std::string::npos);
}

// The report prints the registry the explorer's sessions report to, so an
// injected registry shows the explorer's work and nothing else.
TEST(MapCacheTest, ExplorerStatsReportPrintsTheInjectedRegistry) {
  obs::MetricsRegistry metrics;
  SessionOptions opt = FastOptions();
  opt.map.metrics = &metrics;
  Explorer explorer(opt);
  ASSERT_TRUE(explorer.LoadTable(MixtureTable(), "mixture").ok());
  ASSERT_TRUE(explorer.OpenSession("mixture").ok());
  std::string report = explorer.StatsReport();
  EXPECT_NE(report.find("\"core.map.builds\":1,"), std::string::npos)
      << report;
  EXPECT_NE(report.find("\"core.cache.misses\":1,"), std::string::npos)
      << report;
}

}  // namespace
}  // namespace blaeu::core
