// Per-column value counts and summary statistics. CountValues is the one
// tally of a column's values over a selection: preprocessing ranks the
// categories it dummy codes with it (and detects categorical-looking
// numeric columns), and the highlight action's most frequent values and
// frequency bars come from it. Primary-key detection lives here too.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "monet/column.h"
#include "monet/selection.h"
#include "monet/table.h"

namespace blaeu::monet {

/// A numeric column with at most this many distinct values can behave like
/// a categorical (LooksCategorical).
constexpr size_t kCategoricalMaxDistinct = 10;

/// CountValues' cap meaning "count every value".
constexpr size_t kAllValues = std::numeric_limits<size_t>::max();

/// \brief The values of one column over a selection, counted.
struct ValueCounts {
  size_t count = 0;       ///< rows counted
  size_t null_count = 0;  ///< NULL rows
  /// Distinct non-null values, told apart by their rendering; the cap + 1
  /// when the count stopped at the cap.
  size_t distinct = 0;
  /// (rendering, count) of every distinct non-null value, ranked by count
  /// descending, then rendering ascending. Empty when the count stopped.
  std::vector<std::pair<std::string, size_t>> ranked;
};

/// Counts the non-null values of `col` over `sel` by their rendering
/// (Value::ToString), rendering each distinct value once: strings count
/// per dictionary code, bools in two counters and int64 per value (distinct
/// ints render distinctly). Doubles count per bit pattern, each pattern
/// rendered once and merged by rendering, since %.6g can render two doubles
/// alike; past 64 patterns (a continuous column) each later cell is
/// rendered directly. Stops counting values once more than `max_distinct`
/// have been seen: `distinct` is then `max_distinct + 1` and `ranked`
/// empty. `null_count` is always exact.
ValueCounts CountValues(const Column& col, const SelectionVector& sel,
                        size_t max_distinct);

/// \brief Summary of one column over a selection (the highlight action).
struct ColumnStats {
  size_t count = 0;        ///< total rows
  size_t null_count = 0;   ///< NULL rows
  size_t distinct = 0;     ///< distinct non-null values
  // Numeric moments (valid when the column is numeric and has non-nulls).
  double min = 0;
  double max = 0;
  double mean = 0;
  double stddev = 0;
  /// Most frequent non-null values, rendered as strings, with counts,
  /// descending; capped at 16 entries.
  std::vector<std::pair<std::string, size_t>> top_values;
};

/// Computes stats over the rows in `sel`.
ColumnStats ComputeColumnStats(const Column& col, const SelectionVector& sel);

/// Indices of columns that look like primary keys: unique-valued columns,
/// and string/int columns whose lower-cased name is "id", ends in "_id" or
/// "id" following a letter. These are excluded from clustering (paper §3:
/// "Blaeu removes the primary keys").
std::vector<size_t> DetectPrimaryKeyColumns(const Table& table);

/// Heuristic: string and bool columns are categorical, and so is a numeric
/// column whose at most kCategoricalMaxDistinct distinct values repeat
/// (e.g. a year or a small code domain). `counts` must come from
/// CountValues with a cap of at least kCategoricalMaxDistinct.
bool LooksCategorical(const Column& col, const ValueCounts& counts);

}  // namespace blaeu::monet
