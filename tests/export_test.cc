// Unit tests for the metric exporters: OpenMetrics conformance (TYPE
// lines, _total suffix, name sanitization, label escaping, # EOF) and the
// HTML perf report.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"

namespace blaeu::obs {
namespace {

TEST(OpenMetricsNameTest, SanitizesDotsAndIllegalCharacters) {
  EXPECT_EQ(OpenMetricsName("core.map.builds"), "blaeu_core_map_builds");
  EXPECT_EQ(OpenMetricsName("core.map.count_seconds"),
            "blaeu_core_map_count_seconds");
  EXPECT_EQ(OpenMetricsName("weird-name with spaces"),
            "blaeu_weird_name_with_spaces");
}

TEST(ToOpenMetricsTest, CountersExportWithTypeAndTotalSuffix) {
  MetricsRegistry registry;
  registry.counter("core.map.builds")->Add(7);
  std::string text = ToOpenMetrics(registry);
  EXPECT_NE(text.find("# TYPE blaeu_core_map_builds counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("blaeu_core_map_builds_total 7\n"), std::string::npos);
  // The exposition always terminates with the mandatory EOF marker.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST(ToOpenMetricsTest, GaugesAndHistogramsExport) {
  MetricsRegistry registry;
  registry.gauge("core.cache.bytes")->Set(1024.0);
  Histogram* h = registry.histogram("core.map.build_seconds");
  h->Observe(0.010);
  h->Observe(0.020);
  std::string text = ToOpenMetrics(registry);
  EXPECT_NE(text.find("# TYPE blaeu_core_cache_bytes gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("blaeu_core_cache_bytes 1024\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE blaeu_core_map_build_seconds summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_NE(text.find("blaeu_core_map_build_seconds_sum 0.03\n"),
            std::string::npos);
  EXPECT_NE(text.find("blaeu_core_map_build_seconds_count 2\n"),
            std::string::npos);
}

TEST(ToOpenMetricsTest, LabelsAttachEscapedToEverySample) {
  MetricsRegistry registry;
  registry.counter("core.map.builds")->Increment();
  registry.gauge("core.cache.bytes")->Set(1.0);
  std::string text =
      ToOpenMetrics(registry, {{"dataset", "lofar \"32k\"\nrun\\1"}});
  EXPECT_NE(
      text.find(
          "blaeu_core_map_builds_total{dataset=\"lofar \\\"32k\\\"\\nrun\\\\1\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("blaeu_core_cache_bytes{dataset="), std::string::npos);
}

TEST(ToOpenMetricsTest, EmptyRegistryIsJustEof) {
  MetricsRegistry registry;
  EXPECT_EQ(ToOpenMetrics(registry), "# EOF\n");
}

TEST(ToHtmlReportTest, ContainsWaterfallAndTables) {
  MetricsRegistry registry;
  registry.histogram("core.map.sample_seconds")->Observe(0.001);
  registry.histogram("core.map.preprocess_seconds")->Observe(0.015);
  registry.histogram("core.map.cluster_seconds")->Observe(0.002);
  registry.histogram("core.map.build_seconds")->Observe(0.020);
  registry.counter("core.map.builds")->Increment();
  registry.gauge("core.cache.bytes")->Set(42.0);
  std::string html = ToHtmlReport(registry, "test report");
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("test report"), std::string::npos);
  // Stages appear in pipeline order in the waterfall.
  size_t sample_pos = html.find(">sample<");
  size_t preprocess_pos = html.find(">preprocess<");
  size_t cluster_pos = html.find(">cluster<");
  ASSERT_NE(sample_pos, std::string::npos);
  ASSERT_NE(preprocess_pos, std::string::npos);
  ASSERT_NE(cluster_pos, std::string::npos);
  EXPECT_LT(sample_pos, preprocess_pos);
  EXPECT_LT(preprocess_pos, cluster_pos);
  // The whole build is not a stage.
  EXPECT_EQ(html.find(">build<"), std::string::npos);
  EXPECT_NE(html.find("core.map.builds"), std::string::npos);
  EXPECT_NE(html.find("core.cache.bytes"), std::string::npos);
  // Self-contained: no external scripts or stylesheets.
  EXPECT_EQ(html.find("<script src"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
}

TEST(ToHtmlReportTest, EscapesTitle) {
  MetricsRegistry registry;
  std::string html = ToHtmlReport(registry, "a <b> & \"c\"");
  EXPECT_NE(html.find("a &lt;b&gt; &amp; &quot;c&quot;"), std::string::npos);
  EXPECT_EQ(html.find("<b> &"), std::string::npos);
}

}  // namespace
}  // namespace blaeu::obs
