#include "stats/metrics.h"

#include <cassert>
#include <map>
#include <unordered_map>

namespace blaeu::stats {

namespace {

double Choose2(double n) { return n * (n - 1.0) / 2.0; }

}  // namespace

double AdjustedRandIndex(const std::vector<int>& a,
                         const std::vector<int>& b) {
  assert(a.size() == b.size());
  const size_t n = a.size();
  if (n < 2) return 1.0;
  std::map<std::pair<int, int>, size_t> contingency;
  std::unordered_map<int, size_t> row_sums, col_sums;
  for (size_t i = 0; i < n; ++i) {
    ++contingency[{a[i], b[i]}];
    ++row_sums[a[i]];
    ++col_sums[b[i]];
  }
  double sum_cells = 0.0;
  for (const auto& [_, c] : contingency) {
    sum_cells += Choose2(static_cast<double>(c));
  }
  double sum_rows = 0.0;
  for (const auto& [_, c] : row_sums) {
    sum_rows += Choose2(static_cast<double>(c));
  }
  double sum_cols = 0.0;
  for (const auto& [_, c] : col_sums) {
    sum_cols += Choose2(static_cast<double>(c));
  }
  double total_pairs = Choose2(static_cast<double>(n));
  double expected = sum_rows * sum_cols / total_pairs;
  double max_index = (sum_rows + sum_cols) / 2.0;
  if (max_index == expected) return 1.0;  // both partitions trivial
  return (sum_cells - expected) / (max_index - expected);
}

}  // namespace blaeu::stats
