// Property tests for the map cache's correctness contract: a cache-enabled
// session must be observationally identical (byte-identical canonical map
// JSON, same selections, same history) to a cache-disabled session driven
// through the same navigation sequence — and the cache must be thread-clean
// when shared across concurrent sessions (the TSan job runs this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/map_cache.h"
#include "core/navigation.h"
#include "core/render.h"
#include "workloads/gaussian.h"

namespace blaeu::core {
namespace {

SessionOptions FastOptions(uint64_t seed = 42) {
  SessionOptions opt;
  opt.map.sample_size = 400;
  opt.map.k_max = 4;
  opt.seed = seed;
  return opt;
}

monet::TablePtr MixtureTable(size_t rows, uint64_t seed) {
  workloads::MixtureSpec spec;
  spec.rows = rows;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  spec.seed = seed;
  return workloads::MakeGaussianMixture(spec).table;
}

/// The count invariants of the current state: the root counts the whole
/// selection, every other region counts exactly the selected rows its full
/// root-to-region predicate accepts, children never outnumber their parent,
/// and the state's SQL selects exactly the selection.
void ExpectCountsMatchSelection(const Session& s) {
  const NavState& cur = s.current();
  for (const MapRegion& region : cur.map.regions) {
    if (region.parent < 0) {
      EXPECT_EQ(region.tuple_count, cur.selection.size())
          << cur.action << " root " << region.id;
    } else {
      auto rows = region.predicate.EvaluateOn(s.table(), cur.selection);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(region.tuple_count, rows->size())
          << cur.action << " region " << region.id;
    }
    size_t children = 0;
    for (int child : region.children) {
      children += cur.map.region(child).tuple_count;
    }
    EXPECT_LE(children, region.tuple_count)
        << cur.action << " region " << region.id;
  }
  auto result = s.CurrentQuery().ExecuteOn(s.table());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->num_rows(), cur.selection.size()) << cur.action;
}

/// Applies one pseudo-random navigation action to both sessions. Decisions
/// are driven by `a`'s state; the test then asserts `b` stayed in lockstep.
void RandomStep(Rng* rng, Session* a, Session* b) {
  const uint64_t dice = rng->NextBounded(10);
  if (dice < 5) {  // zoom into a random leaf big enough to map
    std::vector<int> leaves = a->current().map.LeafIds();
    std::vector<int> viable;
    for (int leaf : leaves) {
      if (a->current().map.region(leaf).parent >= 0 &&
          a->current().map.region(leaf).tuple_count >= 20) {
        viable.push_back(leaf);
      }
    }
    if (viable.empty()) return;
    int target = viable[rng->NextBounded(viable.size())];
    Status sa = a->Zoom(target);
    Status sb = b->Zoom(target);
    ASSERT_EQ(sa.ok(), sb.ok());
    return;
  }
  if (dice < 7) {  // rollback to a random earlier state
    if (a->history_size() <= 1) return;
    size_t target = rng->NextBounded(a->history_size() - 1);
    ASSERT_TRUE(a->RollbackTo(target).ok());
    ASSERT_TRUE(b->RollbackTo(target).ok());
    return;
  }
  // project onto a random theme (which may be the current one)
  size_t theme = rng->NextBounded(a->themes().size());
  Status sa = a->Project(theme);
  Status sb = b->Project(theme);
  ASSERT_EQ(sa.ok(), sb.ok());
}

TEST(MapCachePropertyTest, CachedSessionIsByteIdenticalToUncached) {
  // 5,000 rows exceed 4 x sample_size (1,600), so those maps sample from the
  // session sampler's narrowed selection; 1,500 rows sample directly.
  for (size_t table_rows : {1500, 5000}) {
    SCOPED_TRACE("rows " + std::to_string(table_rows));
    auto table = MixtureTable(table_rows, /*seed=*/42);
    for (uint64_t trial = 0; trial < 3; ++trial) {
      obs::MetricsRegistry cached_metrics, uncached_metrics;
      SessionOptions cached_opt = FastOptions(100 + trial);
      cached_opt.cache_enabled = true;
      cached_opt.map.metrics = &cached_metrics;
      SessionOptions uncached_opt = cached_opt;
      uncached_opt.cache_enabled = false;
      uncached_opt.map.metrics = &uncached_metrics;

      auto cached = Session::Start(table, "mixture", cached_opt);
      auto uncached = Session::Start(table, "mixture", uncached_opt);
      ASSERT_TRUE(cached.ok());
      ASSERT_TRUE(uncached.ok());
      Session a = std::move(cached).ValueOrDie();
      Session b = std::move(uncached).ValueOrDie();
      ExpectCountsMatchSelection(a);

      Rng rng(777 + trial);
      for (int step = 0; step < 12; ++step) {
        RandomStep(&rng, &a, &b);
        if (HasFatalFailure()) return;
        ASSERT_EQ(a.history_size(), b.history_size()) << "step " << step;
        ASSERT_EQ(a.current().selection.size(), b.current().selection.size())
            << "step " << step;
        // The load-bearing assertion: every byte of the canonical map JSON
        // (regions, predicates, counts, silhouettes, medoids) matches, so a
        // cache hit is indistinguishable from the build it replaced.
        ASSERT_EQ(CanonicalMapJson(a.current().map),
                  CanonicalMapJson(b.current().map))
            << "step " << step << " action " << a.current().action;
        ExpectCountsMatchSelection(a);
        if (HasFailure()) return;
      }
      // The exercise must actually have exercised the cache: rollback +
      // revisit sequences produce hits with overwhelming probability here.
      EXPECT_GT(cached_metrics.counter("core.cache.hits")->value() +
                    cached_metrics.counter("core.cache.misses")->value(),
                0);
      EXPECT_EQ(uncached_metrics.counter("core.cache.hits")->value(), 0);
    }
  }
}

TEST(MapCachePropertyTest, RebuildAfterRollbackEqualsCacheHit) {
  // The seed-derivation contract in isolation: the same navigation state
  // rebuilt COLD (cache off) twice yields the same bytes, which is what
  // entitles the cache to memoize per state.
  auto table = MixtureTable(800, /*seed=*/42);
  SessionOptions opt = FastOptions();
  opt.cache_enabled = false;
  auto s1 = Session::Start(table, "mixture", opt);
  auto s2 = Session::Start(table, "mixture", opt);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  Session a = std::move(s1).ValueOrDie();
  Session b = std::move(s2).ValueOrDie();
  std::vector<int> leaves = a.current().map.LeafIds();
  ASSERT_FALSE(leaves.empty());
  ASSERT_TRUE(a.Zoom(leaves[0]).ok());
  ASSERT_TRUE(b.Zoom(leaves[0]).ok());
  ASSERT_TRUE(b.Rollback().ok());
  ASSERT_TRUE(b.Zoom(leaves[0]).ok());  // rebuilt cold, not replayed
  EXPECT_EQ(CanonicalMapJson(a.current().map),
            CanonicalMapJson(b.current().map));
}

TEST(MapCachePropertyTest, ConcurrentSessionsShareOneCacheCleanly) {
  // Several sessions over the same table share one MapCache and navigate
  // concurrently: same keys, cross-session hits, entry re-tagging, and
  // destructor-driven eviction all race here. TSan must stay silent.
  auto table = MixtureTable(1000, /*seed=*/42);
  obs::MetricsRegistry metrics;
  auto cache =
      std::make_shared<MapCache>(MapCache::kDefaultBudgetBytes, &metrics);
  // A "warm" session stays alive for the whole test so every worker's
  // initial map is a guaranteed cross-session hit on its entry.
  SessionOptions warm_opt = FastOptions();
  warm_opt.cache = cache;
  warm_opt.map.num_threads = 1;
  auto warm = Session::Start(table, "mixture", warm_opt);
  ASSERT_TRUE(warm.ok());
  Session warm_session = std::move(warm).ValueOrDie();
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      SessionOptions opt = FastOptions();
      opt.cache = cache;
      // Maps inside a session stay serial so the sessions themselves are
      // the concurrency under test, not the pipeline's pool.
      opt.map.num_threads = 1;
      auto session = Session::Start(table, "mixture", opt);
      if (!session.ok()) {
        failures++;
        return;
      }
      Session s = std::move(session).ValueOrDie();
      Rng rng(900 + t);
      for (int step = 0; step < 6; ++step) {
        std::vector<int> leaves = s.current().map.LeafIds();
        std::vector<int> viable;
        for (int leaf : leaves) {
          if (s.current().map.region(leaf).parent >= 0 &&
              s.current().map.region(leaf).tuple_count >= 20) {
            viable.push_back(leaf);
          }
        }
        if (!viable.empty() && rng.NextBounded(3) != 0) {
          if (!s.Zoom(viable[rng.NextBounded(viable.size())]).ok()) {
            failures++;
          }
        } else if (s.history_size() > 1) {
          if (!s.Rollback().ok()) failures++;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // The first worker to start shares the warm session's initial-map key, so
  // at least one cross-session hit is guaranteed (usually all four hit, but
  // a worker dying re-tags and releases the entry, so later workers may
  // legitimately rebuild it).
  EXPECT_GT(metrics.counter("core.cache.hits")->value(), 0);
  // Each hit re-tagged the entry to the hitting worker, and each worker's
  // death released its entries — so nothing survives the workers.
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_EQ(cache->stats().bytes, 0u);
}

}  // namespace
}  // namespace blaeu::core
