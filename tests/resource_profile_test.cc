// Unit tests for per-map resource accounting: a cold build reports the
// work it did (sampled rows, feature cells, distance evaluations, tree
// size, scratch peak), a cached warm map reports cache_hits=1 and ZERO
// work — the acceptance contract of obs/resource.h — and profiles and
// stage spans aggregate into the metrics registry under core.map.*.
#include "obs/resource.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/map_builder.h"
#include "core/navigation.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "workloads/gaussian.h"

namespace blaeu::core {
namespace {

workloads::Dataset MakeMixture(size_t rows = 800) {
  workloads::MixtureSpec spec;
  spec.rows = rows;
  spec.num_clusters = 3;
  spec.dims = 4;
  auto data = workloads::MakeGaussianMixture(spec);
  return data;
}

TEST(ResourceProfileTest, ColdBuildAccountsItsWork) {
  auto data = MakeMixture();
  obs::MetricsRegistry metrics;
  MapOptions opt;
  opt.sample_size = 500;
  opt.fixed_k = 3;
  opt.metrics = &metrics;
  auto map = BuildMap(*data.table, opt);
  ASSERT_TRUE(map.ok());
  const obs::ResourceProfile& res = map->resources;

  EXPECT_EQ(res.rows_scanned, static_cast<int64_t>(map->sample_size));
  EXPECT_EQ(res.rows_scanned, 500);
  EXPECT_GT(res.cells_materialized, 0);
  EXPECT_GT(res.distance_evaluations, 0);
  EXPECT_EQ(res.cart_nodes, static_cast<int64_t>(map->regions.size()));
  EXPECT_GT(res.rows_counted, 0);
  EXPECT_GT(res.peak_scratch_bytes, 0);
  EXPECT_GT(map->build_seconds, 0.0);
  // No cache in a bare BuildMap call.
  EXPECT_EQ(res.cache_hits, 0);
  EXPECT_EQ(res.cache_misses, 0);

  // The profile also lands in the injected registry.
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("core.map.rows_scanned"), res.rows_scanned);
  EXPECT_EQ(snap.counters.at("core.map.distance_evaluations"),
            res.distance_evaluations);
  EXPECT_EQ(snap.counters.at("core.map.cart_nodes"), res.cart_nodes);
  EXPECT_EQ(snap.histograms.at("core.map.scratch_peak_bytes").count, 1u);

  // The build span observes core.map.build_seconds after the map took its
  // build_seconds. Each stage span observes its own histogram once, even
  // with tracing off (the global tracer is disabled here), and the stages
  // split the build without overlapping.
  const obs::HistogramSnapshot& build =
      snap.histograms.at("core.map.build_seconds");
  EXPECT_EQ(build.count, 1u);
  EXPECT_GE(build.sum, map->build_seconds);
  double stage_seconds = 0.0;
  for (const char* stage :
       {"sample", "preprocess", "cluster", "describe", "assemble", "count"}) {
    const std::string name = std::string("core.map.") + stage + "_seconds";
    ASSERT_EQ(snap.histograms.count(name), 1u) << "missing " << name;
    EXPECT_EQ(snap.histograms.at(name).count, 1u) << name;
    stage_seconds += snap.histograms.at(name).sum;
  }
  EXPECT_GT(stage_seconds, 0.0);
  EXPECT_LE(stage_seconds, build.sum);
}

// The k tasks of a build's sweep run on pool threads and each adds its
// distance count to the build's total once per call: the profile counts the
// same evaluations at any thread count.
TEST(ResourceProfileTest, DistanceEvaluationsAreTheSameAtAnyThreadCount) {
  auto data = MakeMixture(600);
  std::vector<int64_t> evaluations;
  for (size_t threads : {1, 4}) {
    MapOptions opt;
    opt.num_threads = threads;
    obs::MetricsRegistry metrics;
    opt.metrics = &metrics;
    auto map = BuildMap(*data.table, opt);
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map->sample_size, 600u);
    EXPECT_GT(map->resources.distance_evaluations, 0);
    evaluations.push_back(map->resources.distance_evaluations);
  }
  EXPECT_EQ(evaluations[0], evaluations[1]);
}

TEST(ResourceProfileTest, SmallSampleScansEveryRow) {
  auto data = MakeMixture(300);
  MapOptions opt;
  opt.sample_size = 2000;  // larger than the table: no sampling happens
  opt.fixed_k = 3;
  auto map = BuildMap(*data.table, opt);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->resources.rows_scanned, 300);
}

// The acceptance criterion of the PR: a map served warm from the cache
// reports cache_hits = 1 and ZERO rows scanned, while the cold build of
// the same state reports the sampled row count.
TEST(ResourceProfileTest, WarmCacheHitReportsZeroWork) {
  auto data = MakeMixture();
  obs::MetricsRegistry metrics;
  SessionOptions opt;
  opt.map.metrics = &metrics;
  opt.map.sample_size = 500;
  opt.map.fixed_k = 3;
  opt.cache_enabled = true;
  auto session = Session::Start(data.table, "mixture", opt);
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();

  // The initial map was built cold through the cache: a miss, real work.
  // Copied, not referenced: navigating below grows the session's state
  // vector, which would invalidate a reference into it.
  const obs::ResourceProfile cold = s.current().map.resources;
  EXPECT_EQ(cold.cache_misses, 1);
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.rows_scanned, 500);
  EXPECT_GT(cold.distance_evaluations, 0);

  // Navigate away and back: the rebuilt root state is a pure cache hit.
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_FALSE(leaves.empty());
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  ASSERT_TRUE(s.Rollback().ok());
  ASSERT_TRUE(s.SelectTheme(0).ok());  // same state as start -> cache hit

  const obs::ResourceProfile& warm = s.current().map.resources;
  EXPECT_EQ(warm.cache_hits, 1);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.rows_scanned, 0);
  EXPECT_EQ(warm.cells_materialized, 0);
  EXPECT_EQ(warm.distance_evaluations, 0);
  EXPECT_EQ(warm.rows_counted, 0);
  EXPECT_EQ(warm.peak_scratch_bytes, 0);
  // The map itself is still the full, bit-identical artifact.
  EXPECT_EQ(s.current().map.regions.size(),
            static_cast<size_t>(cold.cart_nodes));
  EXPECT_EQ(metrics.counter("core.cache.hits")->value(), 1);
}

TEST(ResourceProfileTest, CacheDisabledReportsNoCacheTraffic) {
  auto data = MakeMixture();
  SessionOptions opt;
  opt.map.sample_size = 500;
  opt.map.fixed_k = 3;
  opt.cache_enabled = false;
  auto session = Session::Start(data.table, "mixture", opt);
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();
  EXPECT_EQ(s.current().map.resources.cache_hits, 0);
  EXPECT_EQ(s.current().map.resources.cache_misses, 0);
  EXPECT_GT(s.current().map.resources.rows_scanned, 0);
}

// The scratch peak of a clustered build is its feature matrix (8 bytes a
// cell) plus the count stage's row ids (4 bytes per row of every region),
// which live at the same time; a build under 4 feature rows never counts,
// so its peak is the feature matrix alone.
TEST(ResourceProfileTest, ScratchPeakIsFeaturesPlusCountedRowIds) {
  auto data = MakeMixture();
  MapOptions opt;
  opt.sample_size = 500;
  opt.fixed_k = 3;
  auto map = BuildMap(*data.table, opt);
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->algorithm, "clara");
  int64_t row_ids = 0;
  for (const MapRegion& region : map->regions) {
    row_ids += static_cast<int64_t>(region.tuple_count);
  }
  EXPECT_EQ(map->resources.peak_scratch_bytes,
            map->resources.cells_materialized * 8 + row_ids * 4);
  EXPECT_EQ(map->resources.peak_scratch_bytes, 26892);

  auto tiny = BuildMap(*MakeMixture(3).table, opt);
  ASSERT_TRUE(tiny.ok());
  ASSERT_EQ(tiny->algorithm, "trivial");
  EXPECT_EQ(tiny->resources.peak_scratch_bytes, 3 * 4 * 8);
}

// Flight recorder integration: a session's builds and navigation leave a
// readable trail in an injected recorder.
TEST(ResourceProfileTest, SessionLeavesFlightTrail) {
  auto data = MakeMixture();
  obs::FlightRecorder flight(128);
  SessionOptions opt;
  opt.map.sample_size = 500;
  opt.map.fixed_k = 3;
  opt.map.flight = &flight;
  auto session = Session::Start(data.table, "mixture", opt);
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_FALSE(leaves.empty());
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  ASSERT_TRUE(s.Rollback().ok());

  bool saw_build = false, saw_zoom = false, saw_rollback = false;
  for (const obs::FlightEvent& e : flight.Tail()) {
    if (e.kind == obs::FlightEventKind::kMapBuilt) saw_build = true;
    if (e.name == "core.session.zoom") saw_zoom = true;
    if (e.name == "core.session.rollback") saw_rollback = true;
  }
  EXPECT_TRUE(saw_build);
  EXPECT_TRUE(saw_zoom);
  EXPECT_TRUE(saw_rollback);
}

}  // namespace
}  // namespace blaeu::core
