// Predicates over table columns. Data-map regions are described by
// conjunctions of these conditions; rendering them as SQL realizes the
// paper's claim that every map state is an implicit Select-Project query.
//
// Evaluation is column-at-a-time, as in MonetDB: the conditions of a
// conjunction apply one at a time, each to the rows that survived the ones
// before it, in one tight loop over its column's typed payload. A NULL cell
// fails every condition; a column stores no NaN (Column::AppendDouble
// stores it as NULL). Results are ascending and exactly sized (no spare
// capacity).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "monet/selection.h"
#include "monet/table.h"

namespace blaeu::monet {

/// \brief One atomic condition on a single column.
///
/// Two shapes, the ones a map's tree spells (tree::CartModel::
/// BranchCondition): a threshold on a double or int64 column (`col <= t`,
/// or `col > t` when negated), and set membership (`col IN (...)`, or `NOT
/// IN` when negated) of a string or bool column, whose members match the
/// cells they spell (`true`/`false` for bools). A threshold on a string or
/// bool column and a set on a numeric column match no row.
struct Condition {
  enum class Kind { kThreshold, kInSet };

  std::string column;
  Kind kind = Kind::kThreshold;
  double threshold = 0.0;        ///< for kThreshold
  std::vector<std::string> set;  ///< for kInSet
  bool negated = false;          ///< `>` instead of `<=`, NOT IN instead of IN

  /// `column <= threshold`, or `column > threshold` when negated.
  static Condition Threshold(std::string column, double threshold,
                             bool negated = false);
  /// `column IN (set)`, or NOT IN when negated.
  static Condition InSet(std::string column, std::vector<std::string> set,
                         bool negated = false);

  /// SQL rendering, e.g. `"income" <= 22.5` or `"genre" IN ('Drama',
  /// 'Comedy')`. A threshold renders as FormatDouble does, and a quote
  /// inside the column name or a member is doubled (`'Children''s'`).
  std::string ToSql() const;
};

/// \brief A conjunction of conditions (the WHERE clause of a region).
class Conjunction {
 public:
  Conjunction() = default;
  explicit Conjunction(std::vector<Condition> conditions)
      : conditions_(std::move(conditions)) {}

  void Add(Condition c) { conditions_.push_back(std::move(c)); }
  const std::vector<Condition>& conditions() const { return conditions_; }
  bool empty() const { return conditions_.empty(); }
  size_t size() const { return conditions_.size(); }

  /// Concatenation of two conjunctions (used when zooming: the child region
  /// inherits the parent's constraints).
  Conjunction And(const Conjunction& other) const;

  /// Rows of `table` satisfying all conditions (SQL three-valued logic
  /// collapsed to false). KeyError on unknown columns.
  Result<SelectionVector> Evaluate(const Table& table) const;

  /// Like Evaluate but restricted to the candidate rows in `base`; the
  /// result keeps their (ascending) order.
  Result<SelectionVector> EvaluateOn(const Table& table,
                                     const SelectionVector& base) const;

  /// SQL WHERE clause body ("TRUE" when empty).
  std::string ToSql() const;

 private:
  std::vector<Condition> conditions_;
};

}  // namespace blaeu::monet
