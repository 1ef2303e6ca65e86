#include "nav_stats.h"

#include <algorithm>
#include <cmath>

namespace navbench {

Summary NearestRank(std::vector<double> values, double q) {
  Summary out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // The epsilon keeps q * n = 45.000000000000007 at rank 45.
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::min(std::max<size_t>(rank, 1), values.size());
  out.value = values[rank - 1];
  return out;
}

Summary TrimmedMean(std::vector<double> values, double lo, double hi) {
  Summary out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const size_t begin = static_cast<size_t>(std::floor(lo * n));
  const size_t end =
      values.size() - static_cast<size_t>(std::floor((1.0 - hi) * n));
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) sum += values[i];
  out.value = sum / static_cast<double>(end - begin);
  return out;
}

int64_t CoveredNs(std::vector<Interval> intervals, Interval window) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, window.start);
    iv.end = std::min(iv.end, window.end);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= run_end) {
      run_end = std::max(run_end, iv.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = iv.start;
    run_end = iv.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

std::vector<std::vector<int>> ChildIndex(
    const std::vector<blaeu::obs::SpanRecord>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent >= 0) children[span.parent].push_back(span.id);
  }
  return children;
}

SpanSplit SplitSpan(const std::vector<blaeu::obs::SpanRecord>& spans,
                    const std::vector<std::vector<int>>& children, int id) {
  const auto& root = spans[id];
  const Interval window{root.start_ns, root.start_ns + root.duration_ns};
  SpanSplit out;
  out.total_ns = root.duration_ns;
  std::vector<Interval> all;
  std::map<std::string, std::vector<Interval>> by_name;
  for (int child : children[id]) {
    const auto& c = spans[child];
    if (c.duration_ns < 0) continue;  // still open
    const Interval iv{c.start_ns, c.start_ns + c.duration_ns};
    all.push_back(iv);
    by_name[c.name].push_back(iv);
  }
  out.self_ns = out.total_ns - CoveredNs(std::move(all), window);
  for (auto& [name, intervals] : by_name) {
    out.child_ns[name] = CoveredNs(std::move(intervals), window);
  }
  return out;
}

std::string SpanAttr(const blaeu::obs::SpanRecord& span,
                     const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  return "";
}

}  // namespace navbench
