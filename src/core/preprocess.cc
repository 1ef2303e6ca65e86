#include "core/preprocess.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "common/parallel.h"
#include "common/string_util.h"
#include "monet/column_stats.h"
#include "stats/normalize.h"

namespace blaeu::core {

using monet::Column;
using monet::ColumnStats;
using monet::DataType;
using monet::Dictionary;
using monet::SelectionVector;
using monet::Table;

namespace {

/// Numeric columns with at most this many distinct values are treated as
/// categorical (monet::LooksCategorical).
constexpr size_t kCategoricalDistinctThreshold = 10;

/// One column's fitted preprocessing decisions.
struct ColumnPlan {
  size_t column = 0;  ///< index into the input table's schema
  bool categorical = false;
  std::vector<std::string> categories;  ///< dummy layout, most frequent first
  stats::Normalizer normalizer = stats::Normalizer::ZScore({});
  double impute = 0.0;  ///< numeric NaN replacement (normalized mean)
  /// String columns under use_dictionary only: dictionary code -> rank in
  /// `categories` (-1 = not a kept category). Empty selects the string
  /// path.
  std::vector<int32_t> dict_ranks;
};

/// Everything Preprocess derives from (table, selection, options) before
/// touching the feature matrix.
struct PreprocessPlan {
  std::vector<ColumnPlan> columns;        ///< in schema order
  std::vector<FeatureInfo> feature_info;  ///< resulting feature layout
  std::vector<size_t> used_columns;
  std::vector<size_t> dropped_keys;
};

/// (rendered value, count) pairs ranked count-descending, ties broken by the
/// rendered string ascending — the ordering every category list in the
/// system uses.
using RankedCounts = std::vector<std::pair<std::string, size_t>>;

void RankCounts(RankedCounts* ranked) {
  std::sort(ranked->begin(), ranked->end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
}

/// Top categories of a column over the selection, most frequent first.
///
/// Each type has a fast path that counts on the native payload and renders
/// once per DISTINCT value at the end, instead of materializing a string per
/// cell. Every path produces the same (rendering, count) multiset as the
/// generic string path, so the ranked output is byte-identical:
///  - strings: one dense counter slot per dictionary code;
///  - int64: value-keyed (std::to_string is injective on int64);
///  - double: bit-pattern-keyed per row, then merged by rendering (%.6g is
///    NOT injective, so distinct bit patterns can share one category);
///  - bool: two slots.
std::vector<std::string> TopCategories(const Column& col,
                                       const SelectionVector& sel,
                                       size_t max_categories,
                                       bool use_dictionary) {
  RankedCounts ranked;
  if (!use_dictionary) {
    std::unordered_map<std::string, size_t> counts;
    for (uint32_t r : sel.rows()) {
      if (!col.IsNull(r)) ++counts[col.GetValue(r).ToString()];
    }
    ranked.assign(counts.begin(), counts.end());
  } else if (col.type() == DataType::kString) {
    const std::vector<int32_t>& codes = col.codes();
    const Dictionary& dict = *col.dictionary();
    std::vector<size_t> counts(dict.size(), 0);
    for (uint32_t r : sel.rows()) {
      const int32_t c = codes[r];
      if (c != Dictionary::kNullCode) ++counts[static_cast<size_t>(c)];
    }
    for (size_t code = 0; code < counts.size(); ++code) {
      if (counts[code] > 0) {
        ranked.emplace_back(dict.value(static_cast<int32_t>(code)),
                            counts[code]);
      }
    }
  } else if (col.type() == DataType::kInt64) {
    std::unordered_map<int64_t, size_t> counts;
    for (uint32_t r : sel.rows()) {
      if (!col.IsNull(r)) ++counts[col.ints()[r]];
    }
    for (const auto& [v, n] : counts) ranked.emplace_back(std::to_string(v), n);
  } else if (col.type() == DataType::kDouble) {
    std::unordered_map<uint64_t, size_t> bit_counts;
    for (uint32_t r : sel.rows()) {
      if (col.IsNull(r)) continue;
      uint64_t bits;
      const double d = col.doubles()[r];
      std::memcpy(&bits, &d, sizeof(bits));
      ++bit_counts[bits];
    }
    std::unordered_map<std::string, size_t> merged;
    for (const auto& [bits, n] : bit_counts) {
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      merged[FormatDouble(d)] += n;
    }
    ranked.assign(merged.begin(), merged.end());
  } else {  // kBool
    size_t counts[2] = {0, 0};
    for (uint32_t r : sel.rows()) {
      if (!col.IsNull(r)) ++counts[col.bools()[r] ? 1 : 0];
    }
    if (counts[1] > 0) ranked.emplace_back("true", counts[1]);
    if (counts[0] > 0) ranked.emplace_back("false", counts[0]);
  }
  RankCounts(&ranked);
  std::vector<std::string> out;
  for (size_t i = 0; i < ranked.size() && i < max_categories; ++i) {
    out.push_back(std::move(ranked[i].first));
  }
  return out;
}

/// Fits per-column plans (type decision, category ranking, normalizer,
/// primary-key removal) over the rows in `sel`.
Result<PreprocessPlan> PlanPreprocess(const Table& table,
                                      const SelectionVector& sel,
                                      const PreprocessOptions& options) {
  if (sel.empty()) return Status::Invalid("empty selection");
  PreprocessPlan out;
  const std::vector<size_t> keys = monet::DetectPrimaryKeyColumns(table);
  out.dropped_keys = keys;
  auto is_key = [&](size_t c) {
    return std::find(keys.begin(), keys.end(), c) != keys.end();
  };

  // Each column's plan (stats, category ranking, normalizer fit) is a full
  // pass over the selection and independent of the others, so columns are
  // planned in parallel and collected in schema order afterwards.
  const size_t num_columns = table.num_columns();
  std::vector<std::optional<ColumnPlan>> column_plans(num_columns);
  ParallelFor(
      0, num_columns, 1,
      [&](size_t col_lo, size_t col_hi) {
        for (size_t c = col_lo; c < col_hi; ++c) {
          if (is_key(c)) continue;
          const Column& col = *table.column(c);
          // Planning only compares `distinct` against the categorical
          // threshold and reads the moments, so the stats pass can stop
          // counting distincts there.
          ColumnStats cs =
              options.use_dictionary
                  ? monet::ComputeColumnStatsBounded(
                        col, sel, kCategoricalDistinctThreshold)
                  : monet::ComputeColumnStats(col, sel);
          if (cs.count == cs.null_count) continue;  // all-null: no encoding
          if (cs.distinct <= 1) continue;           // constant: no signal
          ColumnPlan plan;
          plan.column = c;
          plan.categorical = monet::LooksCategorical(
              col, cs, kCategoricalDistinctThreshold);
          if (plan.categorical) {
            plan.categories = TopCategories(col, sel, options.max_categories,
                                            options.use_dictionary);
            if (options.use_dictionary &&
                col.type() == DataType::kString) {
              // Code-indexed category ranks: the per-cell fill becomes two
              // array loads. Every kept category is in the dictionary (it
              // was counted from the column).
              const Dictionary& dict = *col.dictionary();
              plan.dict_ranks.assign(dict.size(), -1);
              for (size_t i = 0; i < plan.categories.size(); ++i) {
                const int32_t code = dict.Find(plan.categories[i]);
                plan.dict_ranks[static_cast<size_t>(code)] =
                    static_cast<int32_t>(i);
              }
            }
          } else {
            std::vector<double> values;
            values.reserve(sel.size());
            for (uint32_t r : sel.rows()) {
              if (!col.IsNull(r)) values.push_back(col.GetNumeric(r));
            }
            plan.normalizer = stats::Normalizer::ZScore(values);
            double sum = 0;
            for (double v : values) sum += plan.normalizer.Apply(v);
            plan.impute = values.empty()
                              ? 0.0
                              : sum / static_cast<double>(values.size());
          }
          column_plans[c] = std::move(plan);
        }
      },
      options.num_threads);
  for (size_t c = 0; c < num_columns; ++c) {
    if (!column_plans[c].has_value()) continue;
    out.used_columns.push_back(c);
    out.columns.push_back(std::move(*column_plans[c]));
  }
  if (out.columns.empty()) {
    return Status::Invalid("no usable columns after preprocessing");
  }

  // Feature layout.
  for (const ColumnPlan& plan : out.columns) {
    const std::string& name = table.schema().field(plan.column).name;
    if (!plan.categorical) {
      out.feature_info.push_back({plan.column, name, false, ""});
      continue;
    }
    for (const std::string& cat : plan.categories) {
      out.feature_info.push_back({plan.column, name, true, cat});
    }
  }
  return out;
}

/// Per-column state resolved once per FillFeatures call, so the row loop
/// never re-derives it: the column pointer, and for the dictionary path
/// the raw code payload. `codes` is null when the string path must be used
/// (a non-string column, or use_dictionary off).
struct ColumnFill {
  const ColumnPlan* cp;
  const Column* col;
  const int32_t* codes = nullptr;
};

/// Fills one feature row per row of `sel` according to `plan`, which was
/// fitted on the same table. Bit-identical at any thread count.
PreprocessedData FillFeatures(const Table& table, const SelectionVector& sel,
                              const PreprocessPlan& plan,
                              size_t num_threads) {
  PreprocessedData out;
  out.rows = sel.rows();
  out.feature_info = plan.feature_info;
  out.used_columns = plan.used_columns;
  out.dropped_keys = plan.dropped_keys;

  const size_t n = sel.size();
  const size_t dims = plan.feature_info.size();
  out.features = stats::Matrix(n, dims);

  std::vector<ColumnFill> fills;
  fills.reserve(plan.columns.size());
  for (const ColumnPlan& cp : plan.columns) {
    ColumnFill fill;
    fill.cp = &cp;
    fill.col = table.column(cp.column).get();
    if (!cp.dict_ranks.empty()) fill.codes = fill.col->codes().data();
    fills.push_back(fill);
  }

  // Fill one matrix row per selected tuple. Rows are disjoint, so the loop
  // parallelizes with bit-identical output at any thread count.
  ParallelFor(
      0, n, 64,
      [&](size_t row_lo, size_t row_hi) {
        for (size_t i = row_lo; i < row_hi; ++i) {
          uint32_t r = sel[i];
          double* row = out.features.MutableRowPtr(i);
          size_t f = 0;
          for (const ColumnFill& fill : fills) {
            const ColumnPlan& cp = *fill.cp;
            const Column& col = *fill.col;
            if (!cp.categorical) {
              if (col.IsNull(r)) {
                row[f++] = cp.impute;
              } else {
                row[f++] = cp.normalizer.Apply(col.GetNumeric(r));
              }
              continue;
            }
            if (fill.codes != nullptr) {
              // Dictionary fast path: two array loads per cell, no string
              // materialization and no hashing. kNullCode ranks as -1.
              const int32_t code = fill.codes[r];
              const int32_t rank =
                  code == Dictionary::kNullCode
                      ? -1
                      : cp.dict_ranks[static_cast<size_t>(code)];
              const size_t k = cp.categories.size();
              for (size_t j = 0; j < k; ++j) row[f + j] = 0.0;
              if (rank >= 0) row[f + static_cast<size_t>(rank)] = 1.0;
              f += k;
              continue;
            }
            // Dummy coding: 1 for the matching category, else 0. The null
            // test and cell string are per-row, not per-category.
            const bool is_null = col.IsNull(r);
            const std::string cell =
                is_null ? std::string() : col.GetValue(r).ToString();
            for (const std::string& cat : cp.categories) {
              row[f++] = (!is_null && cell == cat) ? 1.0 : 0.0;
            }
          }
        }
      },
      num_threads);
  return out;
}

}  // namespace

Result<PreprocessedData> Preprocess(const Table& table,
                                    const SelectionVector& sel,
                                    const PreprocessOptions& options) {
  BLAEU_ASSIGN_OR_RETURN(PreprocessPlan plan,
                         PlanPreprocess(table, sel, options));
  return FillFeatures(table, sel, plan, options.num_threads);
}

}  // namespace blaeu::core
