// Immutable tables: a schema plus one shared column per field.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "monet/column.h"
#include "monet/schema.h"

namespace blaeu::monet {

class Table;
using TablePtr = std::shared_ptr<const Table>;

/// \brief An immutable columnar table.
///
/// Columns are shared_ptrs, so projections are O(#columns) and share
/// storage with the parent table — the "low-level data sharing" Blaeu relies
/// on between MonetDB and R. Row subsets (filters, samples) materialize via
/// Take.
class Table {
 public:
  Table(Schema schema, std::vector<ColumnPtr> columns);

  /// Validates column count/types/lengths against the schema.
  static Result<TablePtr> Make(Schema schema, std::vector<ColumnPtr> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const ColumnPtr& column(size_t i) const { return columns_[i]; }
  /// Column by name, or KeyError.
  Result<ColumnPtr> ColumnByName(const std::string& name) const;

  /// Cell accessor (NULL-aware Value).
  Value GetValue(size_t row, size_t col) const {
    return columns_[col]->GetValue(row);
  }

  /// One row as Values, in schema order.
  std::vector<Value> Row(size_t row) const;

  /// New table with rows gathered at `indices` (duplicates allowed).
  TablePtr Take(const std::vector<uint32_t>& indices) const;

  /// New table keeping columns at `indices`, sharing their storage.
  TablePtr Project(const std::vector<size_t>& indices) const;

  /// Project by column names; KeyError if any is missing.
  Result<TablePtr> ProjectNames(const std::vector<std::string>& names) const;

  /// First `n` rows rendered as an aligned text grid (for examples/REPL).
  std::string ToString(size_t max_rows = 10) const;

 private:
  Schema schema_;
  std::vector<ColumnPtr> columns_;
  size_t num_rows_;
};

/// \brief Row-wise table construction.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema);

  /// Appends one row; `values` must match the schema arity and types
  /// (numeric widening allowed).
  Status AppendRow(const std::vector<Value>& values);

  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0]->size(); }

  void Reserve(size_t n);

  /// Finalizes into an immutable table. The builder is left empty.
  Result<TablePtr> Finish();

 private:
  Schema schema_;
  std::vector<std::shared_ptr<Column>> columns_;
};

}  // namespace blaeu::monet
