#include "core/preprocess.h"

#include <algorithm>
#include <optional>

#include "common/parallel.h"
#include "monet/column_stats.h"
#include "stats/normalize.h"

namespace blaeu::core {

using monet::Column;
using monet::DataType;
using monet::Dictionary;
using monet::SelectionVector;
using monet::Table;

namespace {

/// Dummy features per categorical column. Rarer categories share the
/// all-zero encoding, which keeps wide categorical columns from dominating.
constexpr size_t kMaxCategories = 12;

/// One column's fitted preprocessing decisions.
struct ColumnPlan {
  size_t column = 0;  ///< index into the input table's schema
  bool categorical = false;
  std::vector<std::string> categories;  ///< dummy layout, most frequent first
  stats::Normalizer normalizer = stats::Normalizer::ZScore({});
  double impute = 0.0;  ///< numeric NaN replacement (normalized mean)
  /// Categorical string columns only: dictionary code -> rank in
  /// `categories` (-1 = not a kept category).
  std::vector<int32_t> dict_ranks;
};

/// Fits per-column plans (type decision, category ranking, normalizer,
/// primary-key removal) over the rows in `sel`, in schema order, and
/// records in `out` the dropped keys, the used columns and the feature
/// layout they give.
Result<std::vector<ColumnPlan>> PlanColumns(const Table& table,
                                            const SelectionVector& sel,
                                            size_t num_threads,
                                            PreprocessedData* out) {
  if (sel.empty()) return Status::Invalid("empty selection");
  const std::vector<size_t> keys = monet::DetectPrimaryKeyColumns(table);
  out->dropped_keys = keys;
  auto is_key = [&](size_t c) {
    return std::find(keys.begin(), keys.end(), c) != keys.end();
  };

  // Each column's plan (value counts, category ranking, normalizer fit) is
  // a full pass over the selection and independent of the others, so
  // columns are planned in parallel and collected in schema order
  // afterwards.
  const size_t num_columns = table.num_columns();
  std::vector<std::optional<ColumnPlan>> column_plans(num_columns);
  ParallelFor(
      0, num_columns, 1,
      [&](size_t col_lo, size_t col_hi) {
        for (size_t c = col_lo; c < col_hi; ++c) {
          if (is_key(c)) continue;
          const Column& col = *table.column(c);
          // A numeric column is dummy coded only with at most
          // kCategoricalMaxDistinct values, so its count can stop there.
          monet::ValueCounts counts = monet::CountValues(
              col, sel,
              monet::IsNumeric(col.type()) ? monet::kCategoricalMaxDistinct
                                           : monet::kAllValues);
          if (counts.count == counts.null_count) continue;  // all-null
          if (counts.distinct <= 1) continue;  // constant: no signal
          ColumnPlan plan;
          plan.column = c;
          plan.categorical = monet::LooksCategorical(col, counts);
          if (plan.categorical) {
            for (size_t i = 0; i < counts.ranked.size() && i < kMaxCategories;
                 ++i) {
              plan.categories.push_back(std::move(counts.ranked[i].first));
            }
            if (col.type() == DataType::kString) {
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
      num_threads);
  std::vector<ColumnPlan> plans;
  for (size_t c = 0; c < num_columns; ++c) {
    if (!column_plans[c].has_value()) continue;
    out->used_columns.push_back(c);
    plans.push_back(std::move(*column_plans[c]));
  }
  if (plans.empty()) {
    return Status::Invalid("no usable columns after preprocessing");
  }

  // Feature layout.
  for (const ColumnPlan& plan : plans) {
    const std::string& name = table.schema().field(plan.column).name;
    if (!plan.categorical) {
      out->feature_info.push_back({plan.column, name, false, ""});
      continue;
    }
    for (const std::string& cat : plan.categories) {
      out->feature_info.push_back({plan.column, name, true, cat});
    }
  }
  return plans;
}

/// Per-column state resolved once per FillFeatures call, so the row loop
/// never re-derives it: the column pointer, and for categorical string
/// columns the raw code payload. `codes` is null for every other column.
struct ColumnFill {
  const ColumnPlan* cp;
  const Column* col;
  const int32_t* codes = nullptr;
};

/// Fills `out`'s rows and one feature row per row of `sel` according to
/// `plans` and `out`'s feature layout, which PlanColumns fitted on the same
/// table. Bit-identical at any thread count.
void FillFeatures(const Table& table, const SelectionVector& sel,
                  const std::vector<ColumnPlan>& plans, size_t num_threads,
                  PreprocessedData* out) {
  out->rows = sel.rows();
  const size_t n = sel.size();
  const size_t dims = out->feature_info.size();
  out->features = stats::Matrix(n, dims);

  std::vector<ColumnFill> fills;
  fills.reserve(plans.size());
  for (const ColumnPlan& cp : plans) {
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
          double* row = out->features.MutableRowPtr(i);
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
            // Bool and numeric categoricals: 1 for the category the cell
            // renders as, else 0. The null test and cell string are
            // per-row, not per-category.
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
}

}  // namespace

Result<PreprocessedData> Preprocess(const Table& table,
                                    const SelectionVector& sel,
                                    size_t num_threads) {
  PreprocessedData out;
  BLAEU_ASSIGN_OR_RETURN(std::vector<ColumnPlan> plans,
                         PlanColumns(table, sel, num_threads, &out));
  FillFeatures(table, sel, plans, num_threads, &out);
  return out;
}

}  // namespace blaeu::core
