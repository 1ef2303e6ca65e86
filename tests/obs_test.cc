// Unit tests for the observability subsystem: metrics semantics, span
// nesting, and the JSON / Chrome-trace export shapes (checked with
// parser-free substring assertions, like the other JSON tests).
#include "obs/metrics.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace blaeu::obs {
namespace {

TEST(CounterTest, AddAndIncrement) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h;
  h.Observe(0.001);
  h.Observe(0.010);
  h.Observe(0.100);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 0.111);
  EXPECT_DOUBLE_EQ(s.min, 0.001);
  EXPECT_DOUBLE_EQ(s.max, 0.100);
  EXPECT_NEAR(s.mean(), 0.037, 1e-12);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, QuantilesTrackLogBuckets) {
  // 99 observations at ~1ms, one at 1s: p50 must sit near 1ms (within the
  // 2x bucket resolution), p99 may reach the outlier but never exceed max.
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Observe(0.001);
  h.Observe(1.0);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_GE(s.p50, 0.0005);
  EXPECT_LE(s.p50, 0.002);
  EXPECT_LE(s.p99, s.max);
  EXPECT_GE(s.p99, s.p50);
  EXPECT_GE(s.p95, s.p50);
}

TEST(HistogramTest, QuantilesClampToObservedRange) {
  Histogram h;
  h.Observe(0.5);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.p50, 0.5);
  EXPECT_DOUBLE_EQ(s.p99, 0.5);
}

TEST(HistogramTest, SingleSampleQuantilesAreTheSample) {
  // A one-observation histogram must report the observation itself, not a
  // log-bucket midpoint (the value would otherwise be off by up to 2x).
  Histogram h;
  h.Observe(0.0123);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.p50, 0.0123);
  EXPECT_DOUBLE_EQ(s.p95, 0.0123);
  EXPECT_DOUBLE_EQ(s.p99, 0.0123);
}

TEST(HistogramTest, IdenticalSamplesQuantilesAreExact) {
  // Same degenerate case with count > 1: min == max pins every quantile.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Observe(0.0271828);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.p50, 0.0271828);
  EXPECT_DOUBLE_EQ(s.p95, 0.0271828);
  EXPECT_DOUBLE_EQ(s.p99, 0.0271828);
}

TEST(HistogramTest, NegativeAndNanInputsAreSafe) {
  Histogram h;
  h.Observe(-1.0);  // clamped to zero
  h.Observe(std::nan(""));  // dropped
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 0.0);
}

TEST(MetricsRegistryTest, NamesAreStable) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("a.b.c");
  Counter* c2 = reg.counter("a.b.c");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(reg.counter("other"), c1);
  // Families are independent namespaces.
  EXPECT_NE(static_cast<void*>(reg.gauge("a.b.c")),
            static_cast<void*>(c1));
}

TEST(MetricsRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricsRegistryTest, ToJsonShape) {
  MetricsRegistry reg;
  reg.counter("x.count")->Add(7);
  reg.gauge("x.level")->Set(2.5);
  reg.histogram("x.seconds")->Observe(0.25);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"x.count\":7}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"x.level\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"x.seconds\":{\"count\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
}

TEST(SpanTest, ObservesItsSecondsHistogramOnClose) {
  // Given a registry, a closing span observes <name>_seconds there whether
  // its tracer is null, disabled or enabled; only the enabled one records.
  MetricsRegistry reg;
  Tracer disabled;
  Tracer enabled;
  enabled.set_enabled(true);
  Histogram* stage = reg.histogram("x.stage_seconds");
  uint64_t closed = 0;
  for (Tracer* tracer : {static_cast<Tracer*>(nullptr), &disabled, &enabled}) {
    {
      Span span(tracer, "x.stage", &reg);
      EXPECT_EQ(stage->Snapshot().count, closed);  // not before it closes
    }
    EXPECT_EQ(stage->Snapshot().count, ++closed);
  }
  HistogramSnapshot s = stage->Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_GE(s.min, 0.0);
  EXPECT_TRUE(disabled.Finished().empty());
  ASSERT_EQ(enabled.Finished().size(), 1u);
  EXPECT_EQ(enabled.Finished()[0].name, "x.stage");

  // Without a registry a span is trace-only: it creates no histogram, not
  // even in the global registry.
  { Span span(&enabled, "obs_test.untimed"); }
  EXPECT_EQ(enabled.Finished().size(), 2u);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().histograms.count(
                "obs_test.untimed_seconds"),
            0u);

  // The one-argument form observes in the global registry.
  Histogram* timed =
      MetricsRegistry::Global().histogram("obs_test.timed_seconds");
  const uint64_t before = timed->Snapshot().count;
  { Span span("obs_test.timed"); }
  EXPECT_EQ(timed->Snapshot().count, before + 1);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;  // disabled by default
  {
    Span span(&tracer, "ignored");
    EXPECT_FALSE(span.active());
    span.SetAttr("k", 3);
  }
  EXPECT_TRUE(tracer.Finished().empty());
  { Span null_span(static_cast<Tracer*>(nullptr), "also ignored"); }
}

TEST(TracerTest, SpansNestLexically) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span root(&tracer, "root");
    {
      Span child(&tracer, "child");
      Span grandchild(&tracer, "grandchild");
    }
    Span sibling(&tracer, "sibling");
  }
  std::vector<SpanRecord> spans = tracer.Finished();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "grandchild");
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[3].parent, spans[0].id);
  // All closed, with start/duration consistent with nesting.
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.duration_ns, 0) << s.name;
  }
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);
}

TEST(TracerTest, AttrsAreRecorded) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span span(&tracer, "work");
    span.SetAttr("rows", static_cast<size_t>(2000));
    span.SetAttr("algorithm", "pam");
    span.SetAttr("silhouette", 0.5);
  }
  std::vector<SpanRecord> spans = tracer.Finished();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 3u);
  EXPECT_EQ(spans[0].attrs[0].first, "rows");
  EXPECT_EQ(spans[0].attrs[0].second, "2000");
  EXPECT_EQ(spans[0].attrs[1].second, "pam");
}

TEST(TracerTest, ClearDiscardsSpans) {
  Tracer tracer;
  tracer.set_enabled(true);
  { Span span(&tracer, "gone"); }
  tracer.Clear();
  EXPECT_TRUE(tracer.Finished().empty());
}

TEST(TracerTest, ToChromeTraceShape) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span root(&tracer, "outer");
    Span child(&tracer, "inner");
    child.SetAttr("rows", 10);
  }
  std::string json = tracer.ToChromeTrace();
  // Minimum contract for chrome://tracing: a traceEvents array of complete
  // ("ph":"X") events with ts/dur in microseconds and integer pid/tid.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"rows\":\"10\"}"), std::string::npos)
      << json;
  EXPECT_EQ(json.back(), '}');
}

TEST(TracerTest, GlobalDisabledByDefault) {
  EXPECT_FALSE(Tracer::Global().enabled());
  { Span span("no-op through the global tracer"); }
}

TEST(TracerTest, ConcurrentSpansKeepPerThreadNesting) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      Span outer(&tracer, "thread.outer");
      Span inner(&tracer, "thread.inner");
    });
  }
  for (auto& t : threads) t.join();
  std::vector<SpanRecord> spans = tracer.Finished();
  ASSERT_EQ(spans.size(), 2u * kThreads);
  for (const SpanRecord& s : spans) {
    if (s.name == "thread.outer") {
      EXPECT_EQ(s.parent, -1);
    } else {
      // Each inner span's parent is the outer span of the SAME thread.
      ASSERT_GE(s.parent, 0);
      EXPECT_EQ(spans[s.parent].thread, s.thread);
      EXPECT_EQ(spans[s.parent].name, "thread.outer");
    }
  }
}

}  // namespace
}  // namespace blaeu::obs
