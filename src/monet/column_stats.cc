#include "monet/column_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace blaeu::monet {

namespace {

/// Doubles are counted per bit pattern until more than this many patterns
/// have been seen. Past it the column is continuous: each pattern would be
/// rendered anyway, so rendering each cell directly saves the pattern hash.
constexpr size_t kMaxBitPatterns = 64;

}  // namespace

ValueCounts CountValues(const Column& col, const SelectionVector& sel,
                        size_t max_distinct) {
  ValueCounts out;
  out.count = sel.size();
  std::vector<std::pair<std::string, size_t>> ranked;
  bool stopped = false;  // more than max_distinct values seen
  switch (col.type()) {
    case DataType::kString: {
      const std::vector<int32_t>& codes = col.codes();
      const Dictionary& dict = *col.dictionary();
      std::vector<size_t> counts(dict.size(), 0);
      for (uint32_t r : sel.rows()) {
        const int32_t c = codes[r];
        if (c == Dictionary::kNullCode) {
          ++out.null_count;
        } else {
          ++counts[static_cast<size_t>(c)];
        }
      }
      for (size_t code = 0; code < counts.size(); ++code) {
        if (counts[code] > 0) {
          ranked.emplace_back(dict.value(static_cast<int32_t>(code)),
                              counts[code]);
        }
      }
      break;
    }
    case DataType::kBool: {
      size_t counts[2] = {0, 0};
      for (uint32_t r : sel.rows()) {
        if (col.IsNull(r)) {
          ++out.null_count;
        } else {
          ++counts[col.bools()[r] ? 1 : 0];
        }
      }
      if (counts[1] > 0) ranked.emplace_back("true", counts[1]);
      if (counts[0] > 0) ranked.emplace_back("false", counts[0]);
      break;
    }
    case DataType::kInt64: {
      std::unordered_map<int64_t, size_t> counts;
      for (uint32_t r : sel.rows()) {
        if (col.IsNull(r)) {
          ++out.null_count;
        } else if (!stopped) {
          ++counts[col.ints()[r]];
          stopped = counts.size() > max_distinct;
        }
      }
      if (stopped) break;
      for (const auto& [v, n] : counts) {
        ranked.emplace_back(std::to_string(v), n);
      }
      break;
    }
    case DataType::kDouble: {
      // One counter per rendering, reached through the bit pattern while
      // there are few patterns. Pointers into an unordered_map's values
      // survive its rehashes.
      std::unordered_map<std::string, size_t> counts;
      std::unordered_map<uint64_t, size_t*> by_bits;
      for (uint32_t r : sel.rows()) {
        if (col.IsNull(r)) {
          ++out.null_count;
          continue;
        }
        if (stopped) continue;
        const double d = col.doubles()[r];
        if (by_bits.size() > kMaxBitPatterns) {
          ++counts[FormatDouble(d)];
        } else {
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          auto [it, inserted] = by_bits.try_emplace(bits, nullptr);
          if (!inserted) {
            ++*it->second;
            continue;
          }
          it->second = &counts[FormatDouble(d)];
          ++*it->second;
          // Past the last pattern counted, expect about one rendering per
          // row, and size the map once instead of rehashing it as it grows.
          if (by_bits.size() > kMaxBitPatterns) counts.reserve(sel.size());
        }
        stopped = counts.size() > max_distinct;
      }
      if (stopped) break;
      ranked.assign(counts.begin(), counts.end());
      break;
    }
  }
  if (stopped || ranked.size() > max_distinct) {
    out.distinct = max_distinct + 1;
    return out;
  }
  out.distinct = ranked.size();
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  out.ranked = std::move(ranked);
  return out;
}

ColumnStats ComputeColumnStats(const Column& col,
                               const SelectionVector& sel) {
  ValueCounts counts = CountValues(col, sel, kAllValues);
  ColumnStats s;
  s.count = counts.count;
  s.null_count = counts.null_count;
  s.distinct = counts.distinct;
  // Moved into an exact-size vector: the full ranking's buffer holds every
  // distinct value.
  const size_t kept = std::min<size_t>(counts.ranked.size(), 16);
  s.top_values.assign(std::make_move_iterator(counts.ranked.begin()),
                      std::make_move_iterator(counts.ranked.begin() + kept));
  if (col.type() == DataType::kString) return s;
  double sum = 0, sum_sq = 0;
  size_t n = 0;
  for (uint32_t r : sel.rows()) {
    if (col.IsNull(r)) continue;
    const double x = col.GetNumeric(r);
    sum += x;
    sum_sq += x * x;
    if (n++ == 0) {
      s.min = s.max = x;
    } else {
      s.min = std::min(s.min, x);
      s.max = std::max(s.max, x);
    }
  }
  if (n == 0) return s;
  s.mean = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - s.mean * s.mean;
  s.stddev = var > 0 ? std::sqrt(var) : 0.0;
  return s;
}

namespace {

/// True when the column has no NULL and no repeated value; bails on the
/// first NULL or the first repeated value.
bool IsUniqueNonNull(const Column& col) {
  if (col.empty() || col.null_count() > 0) return false;
  if (col.type() == DataType::kString) {
    const Dictionary& dict = *col.dictionary();
    // A repeated code is exactly a repeated string; seen[] is dense.
    std::vector<uint8_t> seen(dict.size(), 0);
    for (int32_t c : col.codes()) {
      if (seen[static_cast<size_t>(c)]) return false;
      seen[static_cast<size_t>(c)] = 1;
    }
    return true;
  }
  // kInt64 (the only other type DetectPrimaryKeyColumns probes).
  std::unordered_set<int64_t> seen;
  seen.reserve(col.size() * 2);
  for (int64_t v : col.ints()) {
    if (!seen.insert(v).second) return false;
  }
  return true;
}

}  // namespace

std::vector<size_t> DetectPrimaryKeyColumns(const Table& table) {
  std::vector<size_t> out;
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const Column& col = *table.column(i);
    const std::string lower = ToLower(table.schema().field(i).name);
    bool name_is_key =
        lower == "id" || lower == "key" || lower == "rowid" ||
        (lower.size() > 3 && lower.substr(lower.size() - 3) == "_id");
    if (name_is_key) {
      out.push_back(i);
      continue;
    }
    // Unique string/int columns are identifier-like; unique doubles are
    // usually measurements, so only flag exact types.
    if (col.type() == DataType::kString || col.type() == DataType::kInt64) {
      if (col.size() > 1 && IsUniqueNonNull(col)) out.push_back(i);
    }
  }
  return out;
}

bool LooksCategorical(const Column& col, const ValueCounts& counts) {
  if (col.type() == DataType::kString || col.type() == DataType::kBool) {
    return true;
  }
  // A numeric column behaves like a categorical when its domain is tiny AND
  // values actually repeat (3+ rows per distinct value on average) — a
  // 6-row table with 6 distinct incomes is continuous, a 100-row table with
  // 7 years is categorical.
  const size_t non_null = counts.count - counts.null_count;
  return counts.distinct > 0 && counts.distinct <= kCategoricalMaxDistinct &&
         counts.distinct * 3 <= non_null;
}

}  // namespace blaeu::monet
