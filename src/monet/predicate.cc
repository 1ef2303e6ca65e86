#include "monet/predicate.h"

#include <functional>
#include <memory>

#include "common/string_util.h"

namespace blaeu::monet {

Condition Condition::Threshold(std::string column, double threshold,
                               bool negated) {
  Condition c;
  c.column = std::move(column);
  c.kind = Kind::kThreshold;
  c.threshold = threshold;
  c.negated = negated;
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

namespace {

/// \brief One condition compiled against its column: it writes the rows
/// of in[0, n) that pass it to out, in order, and returns how many. `out`
/// may be `in`, which then compacts in place.
///
/// Everything but the per-row test is resolved once, when the condition is
/// prepared: the column's typed payload and set membership as a byte table
/// over the codes.
using Kernel =
    std::function<size_t(const uint32_t* in, size_t n, uint32_t* out)>;

/// The kernel that keeps the rows for which `keep(row)` holds. The loop
/// writes every row and advances the cursor by 0 or 1, without a branch.
template <typename Keep>
Kernel Filter(Keep keep) {
  return [keep = std::move(keep)](const uint32_t* in, size_t n,
                                  uint32_t* out) {
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = in[i];
      out[kept] = row;
      kept += keep(row) ? 1 : 0;
    }
    return kept;
  };
}

/// A condition of a shape no map builds: no row passes.
Kernel KeepNone() {
  return [](const uint32_t*, size_t, uint32_t*) -> size_t { return 0; };
}

/// `<=`, or `>` when negated, on a typed payload. The cell is widened to
/// double as Column::GetNumeric does.
template <typename T>
Kernel ThresholdKernel(const Column& col, const std::vector<T>& payload,
                       double threshold, bool negated) {
  const uint8_t* valid = col.validity().data();
  const T* data = payload.data();
  auto with = [&](auto cmp) {
    return Filter([=](uint32_t row) {
      return (valid[row] != 0) & cmp(static_cast<double>(data[row]), threshold);
    });
  };
  return negated ? with(std::greater<double>())
                 : with(std::less_equal<double>());
}

Kernel PrepareThreshold(const Condition& c, const Column& col) {
  switch (col.type()) {
    case DataType::kDouble:
      return ThresholdKernel(col, col.doubles(), c.threshold, c.negated);
    case DataType::kInt64:
      return ThresholdKernel(col, col.ints(), c.threshold, c.negated);
    case DataType::kBool:
    case DataType::kString:
      break;
  }
  return KeepNone();
}

Kernel PrepareInSet(const Condition& c, const Column& col) {
  const uint8_t* valid = col.validity().data();
  const bool negated = c.negated;
  switch (col.type()) {
    case DataType::kString: {
      // keep[code + 1] says whether a cell of that code passes. Slot 0 is
      // NULL's kNullCode, which fails IN and NOT IN alike.
      std::vector<uint8_t> keep(col.dictionary()->size() + 1, negated);
      keep[0] = 0;
      for (const std::string& s : c.set) {
        const int32_t code = col.dictionary()->Find(s);
        if (code != Dictionary::kNullCode) keep[code + 1] = !negated;
      }
      const int32_t* codes = col.codes().data();
      return Filter([keep = std::move(keep), codes](uint32_t row) {
        return keep[codes[row] + 1] != 0;
      });
    }
    case DataType::kBool: {
      bool in_true = false, in_false = false;
      for (const std::string& s : c.set) {
        if (s == "true") in_true = true;
        if (s == "false") in_false = true;
      }
      const bool keep_true = in_true != negated;
      const bool keep_false = in_false != negated;
      const uint8_t* bools = col.bools().data();
      return Filter([=](uint32_t row) {
        return (valid[row] != 0) & (bools[row] != 0 ? keep_true : keep_false);
      });
    }
    case DataType::kInt64:
    case DataType::kDouble:
      break;
  }
  return KeepNone();
}

Kernel PrepareCondition(const Condition& c, const Column& col) {
  return c.kind == Condition::Kind::kThreshold ? PrepareThreshold(c, col)
                                               : PrepareInSet(c, col);
}

}  // namespace

std::string Condition::ToSql() const {
  std::string quoted = Quote(column, '"');
  if (kind == Kind::kThreshold) {
    return quoted + (negated ? " > " : " <= ") + FormatDouble(threshold);
  }
  std::string body;
  for (size_t i = 0; i < set.size(); ++i) {
    if (i > 0) body += ", ";
    body += Quote(set[i], '\'');
  }
  return quoted + (negated ? " NOT IN (" : " IN (") + body + ")";
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
  // Resolve every column before touching a row: an unknown column is a
  // KeyError even over an empty base.
  std::vector<Kernel> kernels;
  kernels.reserve(conditions_.size());
  for (const auto& c : conditions_) {
    BLAEU_ASSIGN_OR_RETURN(size_t idx,
                           table.schema().RequireFieldIndex(c.column));
    kernels.push_back(PrepareCondition(c, *table.column(idx)));
  }
  if (kernels.empty()) return base;
  // The first condition reads `base`; each later one compacts the
  // survivors of the ones before it in place. The result is copied out
  // exactly sized.
  const std::vector<uint32_t>& in = base.rows();
  std::unique_ptr<uint32_t[]> rows(new uint32_t[in.size()]);
  size_t n = kernels[0](in.data(), in.size(), rows.get());
  for (size_t i = 1; i < kernels.size() && n > 0; ++i) {
    n = kernels[i](rows.get(), n, rows.get());
  }
  return SelectionVector(std::vector<uint32_t>(rows.get(), rows.get() + n));
}

std::string Conjunction::ToSql() const {
  if (conditions_.empty()) return "TRUE";
  std::vector<std::string> parts;
  parts.reserve(conditions_.size());
  for (const auto& c : conditions_) parts.push_back(c.ToSql());
  return Join(parts, " AND ");
}

}  // namespace blaeu::monet
