// Metric exporters: OpenMetrics/Prometheus text exposition and a
// self-contained HTML perf report, both generated from a MetricsRegistry
// snapshot. This is the "show the numbers to something that is not a C++
// debugger" half of the obs layer: the text format is what a Prometheus
// scraper (or the REPL's `stats --format=openmetrics`) consumes, the HTML
// report is what bench_map_pipeline and CI attach to every run.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace blaeu::obs {

/// Labels attached to every exported sample ({{"dataset","lofar"}, ...}).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Sanitizes a metric name for the OpenMetrics grammar: "core.map.builds"
/// -> "blaeu_core_map_builds" (dots and any other illegal character become
/// underscores; the blaeu_ prefix keeps the first character legal).
std::string OpenMetricsName(const std::string& name);

/// OpenMetrics text exposition of a snapshot. Counters export as `counter`
/// with the `_total` sample suffix, gauges as `gauge`, histograms as
/// `summary` (quantile-labelled p50/p95/p99 plus _sum/_count). Ends with
/// the mandatory `# EOF` line.
std::string ToOpenMetrics(const MetricsSnapshot& snapshot,
                          const MetricLabels& labels = {});
std::string ToOpenMetrics(const MetricsRegistry& registry,
                          const MetricLabels& labels = {});

/// Self-contained HTML perf report: a waterfall of the map stages'
/// core.map.<stage>_seconds histograms, in pipeline order, plus full
/// counter/gauge/histogram tables. No external assets; open the file
/// anywhere.
std::string ToHtmlReport(const MetricsSnapshot& snapshot,
                         const std::string& title);
std::string ToHtmlReport(const MetricsRegistry& registry,
                         const std::string& title);

}  // namespace blaeu::obs
