// Sample summaries and span arithmetic for the navigation benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace navbench {

/// One reported number and the sample count behind it.
struct Summary {
  double value = 0.0;
  size_t count = 0;
};

/// Nearest-rank quantile, q in (0, 1]: the smallest sample with at least
/// ceil(q * n) samples at or below it. An empty input gives {0, 0}.
Summary NearestRank(std::vector<double> values, double q);

/// Mean of the sorted samples from rank floor(lo * n) up to, not including,
/// rank n - floor((1 - hi) * n). With lo = 0.25, hi = 0.75 it is the
/// interquartile mean: unlike the median it does not jump with a single
/// sample where two clusters meet, and unlike the mean a few cliff-sized
/// outliers do not move it. With lo = 0.9, hi = 1 it is the mean of the
/// slowest tenth, a tail that does not jump either. {0, 0} when empty.
Summary TrimmedMean(std::vector<double> values, double lo, double hi);

/// Half-open interval [start, end) in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Length of the union of `intervals` clipped to `window`, so overlapping
/// intervals count once.
int64_t CoveredNs(std::vector<Interval> intervals, Interval window);

/// Where one span's time went: its self time and, per direct-child span
/// name, the time those children cover.
struct SpanSplit {
  int64_t total_ns = 0;
  /// total minus the union of every direct child's interval.
  int64_t self_ns = 0;
  std::map<std::string, int64_t> child_ns;
};

/// Direct children of every span of `spans` (indexed by SpanRecord::id).
std::vector<std::vector<int>> ChildIndex(
    const std::vector<blaeu::obs::SpanRecord>& spans);

/// Splits finished span `id` into self time and per-child-name coverage.
SpanSplit SplitSpan(const std::vector<blaeu::obs::SpanRecord>& spans,
                    const std::vector<std::vector<int>>& children, int id);

/// Attribute `key` of a span, or "" when absent.
std::string SpanAttr(const blaeu::obs::SpanRecord& span,
                     const std::string& key);

}  // namespace navbench
