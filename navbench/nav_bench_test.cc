// Tests of the navigation benchmark's own helpers: quantiles, span self
// time, and the determinism of the replayed script.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/explorer.h"
#include "nav_script.h"
#include "nav_stats.h"
#include "obs/trace.h"
#include "workloads/hollywood.h"

namespace navbench {
namespace {

TEST(NearestRankTest, PicksTheSampleAtTheCeilingRankAndCountsSamples) {
  Summary median = NearestRank({5, 1, 4, 2, 3}, 0.5);
  EXPECT_EQ(median.value, 3);
  EXPECT_EQ(median.count, 5u);
  EXPECT_EQ(NearestRank({4, 1, 3, 2}, 0.5).value, 2);  // rank ceil(2) = 2

  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  std::reverse(hundred.begin(), hundred.end());
  EXPECT_EQ(NearestRank(hundred, 0.5).value, 50);
  EXPECT_EQ(NearestRank(hundred, 0.9).value, 90);
  EXPECT_EQ(NearestRank(hundred, 0.01).value, 1);
  EXPECT_EQ(NearestRank(hundred, 1.0).value, 100);
  EXPECT_EQ(NearestRank(hundred, 0.9).count, 100u);
}

TEST(TrimmedMeanTest, InterquartileMeanAveragesTheMiddleHalf) {
  Summary iqm = TrimmedMean({8, 1, 7, 2, 6, 3, 5, 400}, 0.25, 0.75);
  EXPECT_EQ(iqm.value, 5.25);  // mean of 3, 5, 6, 7
  EXPECT_EQ(iqm.count, 8u);
  EXPECT_EQ(TrimmedMean({1, 2, 6}, 0.25, 0.75).value, 3);  // too few to trim
  EXPECT_EQ(TrimmedMean({}, 0.25, 0.75).count, 0u);
  EXPECT_EQ(TrimmedMean({}, 0.25, 0.75).value, 0);
}

TEST(TrimmedMeanTest, TailMeanAveragesTheSlowestTenth) {
  std::vector<double> thirty(30);
  std::iota(thirty.begin(), thirty.end(), 1.0);
  std::reverse(thirty.begin(), thirty.end());
  Summary tail = TrimmedMean(thirty, 0.9, 1.0);
  EXPECT_EQ(tail.value, 29);  // mean of 28, 29, 30
  EXPECT_EQ(tail.count, 30u);
  EXPECT_EQ(TrimmedMean({4, 9, 1}, 0.9, 1.0).value, 9);  // the slowest one
}

TEST(NearestRankTest, EmptyAndSingleSample) {
  Summary empty = NearestRank({}, 0.5);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.value, 0);
  Summary one = NearestRank({7.5}, 0.9);
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.value, 7.5);
}

TEST(CoveredNsTest, UnionClippedToTheWindow) {
  EXPECT_EQ(CoveredNs({}, {0, 100}), 0);
  EXPECT_EQ(CoveredNs({{10, 20}, {30, 40}}, {0, 100}), 20);  // disjoint
  EXPECT_EQ(CoveredNs({{10, 50}, {20, 30}}, {0, 100}), 40);  // nested
  EXPECT_EQ(CoveredNs({{30, 60}, {10, 40}}, {0, 100}), 50);  // overlapping
  EXPECT_EQ(CoveredNs({{-20, 10}, {90, 150}}, {0, 100}), 20);  // clipped
}

blaeu::obs::SpanRecord Record(int id, int parent, const std::string& name,
                              int64_t start, int64_t end) {
  blaeu::obs::SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.name = name;
  r.start_ns = start;
  r.duration_ns = end - start;
  return r;
}

TEST(SplitSpanTest, OverlappingChildrenCountOnce) {
  // Children from two threads overlap on [30, 40); a grandchild is covered
  // by its parent and must not count again; the last child runs past the
  // root's end and is clipped.
  const std::vector<blaeu::obs::SpanRecord> spans = {
      Record(0, -1, "bench.zoom", 0, 100),
      Record(1, 0, "core.map.build", 10, 40),
      Record(2, 0, "core.cache.lookup", 30, 60),
      Record(3, 1, "core.map.cluster", 15, 35),
      Record(4, 0, "core.map.build", 90, 130),
  };
  const SpanSplit split = SplitSpan(spans, ChildIndex(spans), 0);
  EXPECT_EQ(split.total_ns, 100);
  EXPECT_EQ(split.self_ns, 40);  // 100 - |[10,60) u [90,100)|
  EXPECT_EQ(split.child_ns.at("core.map.build"), 40);
  EXPECT_EQ(split.child_ns.at("core.cache.lookup"), 30);
  EXPECT_EQ(split.child_ns.count("core.map.cluster"), 0u);
}

TEST(SplitSpanTest, SpanWithoutChildrenIsAllSelf) {
  const std::vector<blaeu::obs::SpanRecord> spans = {
      Record(0, -1, "bench.highlight", 5, 25)};
  const SpanSplit split = SplitSpan(spans, ChildIndex(spans), 0);
  EXPECT_EQ(split.self_ns, 20);
  EXPECT_TRUE(split.child_ns.empty());
}

ReplayLog Replay(uint64_t seed, size_t threads,
                 blaeu::obs::Tracer* tracer = nullptr) {
  blaeu::workloads::HollywoodSpec spec;  // the fixed paper-scale table
  blaeu::core::SessionOptions options;
  options.map.num_threads = threads;
  options.map.tracer = tracer;
  blaeu::core::Explorer explorer(options);
  EXPECT_TRUE(explorer
                  .LoadTable(blaeu::workloads::MakeHollywood(spec).table,
                             kTableName)
                  .ok());
  ScriptOptions script;
  script.seed = seed;
  script.tracer = tracer;
  ReplayLog log;
  for (size_t i = 0; i < 2; ++i) RunSession(&explorer, script, i, &log);
  return log;
}

TEST(ScriptTest, EverySessionOpensColdOnTheSameRootMap) {
  // Closing a session evicts its maps, so every OpenSession builds the same
  // themes and root map cold, and playing a session again makes the same
  // calls with the same outcomes: open_ms_p10 compares like with like.
  blaeu::core::Explorer explorer;
  ASSERT_TRUE(explorer
                  .LoadTable(blaeu::workloads::MakeHollywood(
                                 blaeu::workloads::HollywoodSpec())
                                 .table,
                             kTableName)
                  .ok());
  ScriptOptions script;
  script.seed = 7;
  ReplayLog log;
  const SessionRecord first = RunSession(&explorer, script, 3, &log);
  const SessionRecord again = RunSession(&explorer, script, 3, &log);
  const SessionRecord next = RunSession(&explorer, script, 4, &log);
  EXPECT_TRUE(log.errors.empty()) << log.errors.front();
  ASSERT_EQ(again.actions.size(), first.actions.size());
  for (size_t i = 0; i < first.actions.size(); ++i) {
    EXPECT_EQ(again.actions[i].action, first.actions[i].action) << i;
    EXPECT_EQ(again.actions[i].cold, first.actions[i].cold) << i;
    EXPECT_EQ(again.actions[i].selection_rows, first.actions[i].selection_rows)
        << i;
  }
  for (const SessionRecord* s : {&first, &again, &next}) {
    ASSERT_FALSE(s->actions.empty());
    EXPECT_EQ(s->actions[0].action, Action::kOpen);
    EXPECT_TRUE(s->actions[0].cold);
    EXPECT_EQ(s->actions[0].selection_rows, 900u);
  }
}

size_t Count(const std::vector<std::string>& trail, const std::string& prefix) {
  return std::count_if(trail.begin(), trail.end(), [&](const std::string& s) {
    return s.rfind(prefix, 0) == 0;
  });
}

TEST(ScriptTest, SameSeedSameActionsAndMapsAtOneAndTwoThreads) {
  const ReplayLog one = Replay(7, 1);
  EXPECT_EQ(one.failed, 0);
  EXPECT_TRUE(one.errors.empty()) << one.errors.front();
  EXPECT_EQ(Count(one.trail, "open"), 2u);
  EXPECT_EQ(Count(one.trail, "load"), 0u);  // registered once by the caller
  EXPECT_EQ(Count(one.trail, "select_theme("), 2 * kExcursions);
  EXPECT_GT(Count(one.trail, "zoom("), 2 * kExcursions);
  EXPECT_GT(one.cold_maps, 0);

  const ReplayLog again = Replay(7, 1);
  EXPECT_EQ(again.trail, one.trail);
  EXPECT_EQ(again.digest, one.digest);

  const ReplayLog two = Replay(7, 2);
  EXPECT_EQ(two.trail, one.trail);
  EXPECT_EQ(two.digest, one.digest);

  const ReplayLog other = Replay(8, 1);
  EXPECT_NE(other.digest, one.digest);
}

TEST(ScriptTest, TracingChangesNoMapAndEveryCallGetsARootSpan) {
  blaeu::obs::Tracer tracer;
  tracer.set_enabled(true);
  const ReplayLog traced = Replay(7, 1, &tracer);
  const ReplayLog plain = Replay(7, 1);
  EXPECT_EQ(traced.digest, plain.digest);
  EXPECT_FALSE(traced.predicate_eval_ms.empty());
  EXPECT_GT(traced.cache_bytes_max, 0u);

  const auto spans = tracer.Finished();
  const auto children = ChildIndex(spans);
  int64_t roots = 0;
  for (const auto& s : spans) {
    if (s.parent >= 0 || s.name.rfind("bench.", 0) != 0) continue;
    roots++;
    const SpanSplit split = SplitSpan(spans, children, s.id);
    int64_t covered = split.self_ns;
    for (const auto& [name, ns] : split.child_ns) covered += ns;
    EXPECT_EQ(covered, split.total_ns) << s.name;
  }
  EXPECT_EQ(roots, traced.attempted);
}

}  // namespace
}  // namespace navbench
