// Predicates over table columns. Data-map regions are described by
// conjunctions of these conditions; rendering them as SQL realizes the
// paper's claim that every map state is an implicit Select-Project query.
//
// Evaluation is column-at-a-time, as in MonetDB: the conditions of a
// conjunction apply one at a time, each to the rows that survived the ones
// before it, in one tight loop over its column's typed payload. A NULL cell
// fails every condition, and a NaN cell every comparison but <>. Results
// are ascending and exactly sized (no spare capacity).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "monet/selection.h"
#include "monet/table.h"

namespace blaeu::monet {

/// Comparison operators for scalar conditions.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// SQL spelling ("<", "<=", ...).
const char* CompareOpSymbol(CompareOp op);

/// \brief One atomic condition on a single column.
///
/// Two shapes, the ones a map's tree spells (tree::CartModel::
/// BranchCondition): a comparison of a double or int64 column with a
/// numeric literal, and set membership (`col IN {...}`, possibly negated)
/// of a string or bool column, whose members match the cells they spell
/// (`true`/`false` for bools). Any other condition matches no row: a
/// comparison with a NULL or string literal or on a string or bool column,
/// and a set on a numeric column.
struct Condition {
  enum class Kind { kCompare, kInSet };

  std::string column;
  Kind kind = Kind::kCompare;
  CompareOp op = CompareOp::kLt;   ///< for kCompare
  Value value;                     ///< for kCompare
  std::vector<std::string> set;    ///< for kInSet
  bool negated = false;            ///< kInSet: NOT IN

  /// Scalar comparison factory.
  static Condition Compare(std::string column, CompareOp op, Value value);
  /// Set-membership factory.
  static Condition InSet(std::string column, std::vector<std::string> set,
                         bool negated = false);

  /// SQL rendering, e.g. `"income" >= 22` or `"genre" IN ('Drama','Comedy')`.
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
