#include "monet/predicate.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"

namespace blaeu::monet {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
  }
  return "?";
}

Condition Condition::Compare(std::string column, CompareOp op, Value value) {
  Condition c;
  c.column = std::move(column);
  c.kind = Kind::kCompare;
  c.op = op;
  c.value = std::move(value);
  return c;
}

Condition Condition::InSet(std::string column, std::vector<std::string> set,
                           bool negated) {
  Condition c;
  c.column = std::move(column);
  c.kind = Kind::kInSet;
  c.set = std::move(set);
  c.negated = negated;
  return c;
}

Condition Condition::IsNull(std::string column) {
  Condition c;
  c.column = std::move(column);
  c.kind = Kind::kIsNull;
  return c;
}

Condition Condition::NotNull(std::string column) {
  Condition c;
  c.column = std::move(column);
  c.kind = Kind::kNotNull;
  return c;
}

namespace {

bool CompareNumeric(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
  }
  return false;
}

bool CompareString(const std::string& lhs, CompareOp op,
                   const std::string& rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
  }
  return false;
}

/// \brief One condition compiled against its column for a bulk evaluation.
///
/// All literal materialization is hoisted out of the row loop: the compare
/// literal is resolved to a double / string reference / dictionary code
/// once, and set membership pre-resolves to dictionary codes (string
/// columns), an int64 set (int columns, exact-rendering round-trip), or a
/// hashed string set — so the per-row test never constructs a Value or a
/// fresh std::string for dictionary-backed columns.
struct PreparedCondition {
  const Condition* cond = nullptr;
  const Column* col = nullptr;
  Condition::Kind kind = Condition::Kind::kCompare;
  CompareOp op = CompareOp::kLt;
  bool always_false = false;  // null literal or unsatisfiable type mix

  // kCompare
  double num_rhs = 0.0;                 // numeric columns
  const std::string* str_rhs = nullptr; // string columns, ordered ops
  bool use_eq_code = false;             // string columns, Eq/Ne via codes
  int32_t eq_code = Dictionary::kNullCode;

  // kInSet
  std::vector<int32_t> set_codes;        // string columns (sorted)
  std::unordered_set<int64_t> int_set;   // int64 columns
  std::unordered_set<std::string> str_set;  // double columns (rendered)
  bool in_true = false, in_false = false;   // bool columns

  bool Matches(uint32_t row) const {
    const bool is_null = col->IsNull(row);
    switch (kind) {
      case Condition::Kind::kIsNull:
        return is_null;
      case Condition::Kind::kNotNull:
        return !is_null;
      case Condition::Kind::kCompare: {
        if (is_null || always_false) return false;
        if (use_eq_code) {
          const bool eq = col->codes()[row] == eq_code;
          return op == CompareOp::kEq ? eq : !eq;
        }
        if (str_rhs != nullptr) {
          return CompareString(col->StringAt(row), op, *str_rhs);
        }
        return CompareNumeric(col->GetNumeric(row), op, num_rhs);
      }
      case Condition::Kind::kInSet: {
        if (is_null) return false;
        bool found = false;
        switch (col->type()) {
          case DataType::kString:
            found = std::binary_search(set_codes.begin(), set_codes.end(),
                                       col->codes()[row]);
            break;
          case DataType::kBool:
            found = col->bools()[row] ? in_true : in_false;
            break;
          case DataType::kInt64:
            found = int_set.count(col->ints()[row]) > 0;
            break;
          case DataType::kDouble:
            // Rendering per row matches the string-set semantics exactly
            // (%.6g is not injective, so value-keyed sets would diverge).
            found = str_set.count(FormatDouble(col->doubles()[row])) > 0;
            break;
        }
        return cond->negated ? !found : found;
      }
    }
    return false;
  }
};

PreparedCondition PrepareCondition(const Condition& c, const Column& col) {
  PreparedCondition p;
  p.cond = &c;
  p.col = &col;
  p.kind = c.kind;
  p.op = c.op;
  switch (c.kind) {
    case Condition::Kind::kIsNull:
    case Condition::Kind::kNotNull:
      break;
    case Condition::Kind::kCompare:
      if (c.value.is_null()) {
        p.always_false = true;
      } else if (col.type() == DataType::kString) {
        if (c.value.type() != DataType::kString) {
          p.always_false = true;
        } else if (c.op == CompareOp::kEq || c.op == CompareOp::kNe) {
          // Absent literal: Eq never matches, Ne matches every non-null —
          // exactly what kNullCode (never a cell code) yields.
          p.use_eq_code = true;
          p.eq_code = col.dictionary()->Find(c.value.AsString());
        } else {
          p.str_rhs = &c.value.AsString();
        }
      } else if (c.value.type() == DataType::kString) {
        p.always_false = true;
      } else {
        p.num_rhs = c.value.AsDouble();
      }
      break;
    case Condition::Kind::kInSet:
      switch (col.type()) {
        case DataType::kString:
          for (const std::string& s : c.set) {
            const int32_t code = col.dictionary()->Find(s);
            if (code != Dictionary::kNullCode) p.set_codes.push_back(code);
          }
          std::sort(p.set_codes.begin(), p.set_codes.end());
          break;
        case DataType::kBool:
          for (const std::string& s : c.set) {
            if (s == "true") p.in_true = true;
            if (s == "false") p.in_false = true;
          }
          break;
        case DataType::kInt64:
          for (const std::string& s : c.set) {
            int64_t v;
            // Only canonical renderings can ever match a cell's ToString.
            if (ParseInt(s, &v) && std::to_string(v) == s) p.int_set.insert(v);
          }
          break;
        case DataType::kDouble:
          p.str_set.insert(c.set.begin(), c.set.end());
          break;
      }
      break;
  }
  return p;
}

}  // namespace

bool Condition::Matches(const Column& col, size_t row) const {
  return PrepareCondition(*this, col).Matches(static_cast<uint32_t>(row));
}

std::string Condition::ToSql() const {
  std::string quoted = "\"" + column + "\"";
  switch (kind) {
    case Kind::kIsNull:
      return quoted + " IS NULL";
    case Kind::kNotNull:
      return quoted + " IS NOT NULL";
    case Kind::kCompare: {
      std::string rhs = value.type() == DataType::kString
                            ? "'" + value.AsString() + "'"
                            : value.ToString();
      return quoted + " " + CompareOpSymbol(op) + " " + rhs;
    }
    case Kind::kInSet: {
      std::string body;
      for (size_t i = 0; i < set.size(); ++i) {
        if (i > 0) body += ", ";
        body += "'" + set[i] + "'";
      }
      return quoted + (negated ? " NOT IN (" : " IN (") + body + ")";
    }
  }
  return "?";
}

Conjunction Conjunction::And(const Conjunction& other) const {
  Conjunction out(conditions_);
  for (const auto& c : other.conditions_) out.Add(c);
  return out;
}

Result<SelectionVector> Conjunction::Evaluate(const Table& table) const {
  return EvaluateOn(table, SelectionVector::All(table.num_rows()));
}

Result<SelectionVector> Conjunction::EvaluateOn(
    const Table& table, const SelectionVector& base) const {
  // Resolve columns and compile each condition once; the row loop then
  // works on dictionary codes / pre-parsed literals only.
  std::vector<PreparedCondition> prepared;
  prepared.reserve(conditions_.size());
  for (const auto& c : conditions_) {
    BLAEU_ASSIGN_OR_RETURN(size_t idx,
                           table.schema().RequireFieldIndex(c.column));
    prepared.push_back(PrepareCondition(c, *table.column(idx)));
  }
  SelectionVector out;
  for (uint32_t row : base.rows()) {
    bool all = true;
    for (const PreparedCondition& p : prepared) {
      if (!p.Matches(row)) {
        all = false;
        break;
      }
    }
    if (all) out.push_back(row);
  }
  return out;
}

std::string Conjunction::ToSql() const {
  if (conditions_.empty()) return "TRUE";
  std::vector<std::string> parts;
  parts.reserve(conditions_.size());
  for (const auto& c : conditions_) parts.push_back(c.ToSql());
  return Join(parts, " AND ");
}

}  // namespace blaeu::monet
