// Nullable typed columns: the unit of storage of the mini column store.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "monet/dictionary.h"
#include "monet/type.h"

namespace blaeu::monet {

/// \brief A single nullable column with a contiguous typed payload.
///
/// Storage is column-major as in MonetDB: one dense vector per column plus a
/// validity byte-vector (1 = present). Bulk algorithms read the typed
/// vectors directly; Value-based access exists for row assembly and display.
///
/// String columns are dictionary-encoded: the payload is a dense int32 code
/// vector (`codes()`, kNullCode for NULL cells) plus a shared append-ordered
/// `Dictionary`. Appends intern; Take shares the source dictionary, so codes
/// stay comparable across gathered columns. Hot loops compare/count codes
/// and only render strings via `StringAt` / the dictionary at the edges.
class Column {
 public:
  /// Creates an empty column of the given type.
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const { return validity_.size(); }
  bool empty() const { return validity_.empty(); }

  /// Number of NULL entries.
  size_t null_count() const { return null_count_; }
  bool IsNull(size_t row) const { return validity_[row] == 0; }

  /// Appends a typed value. The overload must match type(). A non-finite
  /// double (NaN or ±Inf) is stored as NULL, as CSV input stores `nan`, so
  /// every stored double is finite.
  void AppendDouble(double v);
  void AppendInt(int64_t v);
  void AppendString(std::string_view v);
  void AppendBool(bool v);
  /// Appends a NULL.
  void AppendNull();
  /// Appends any Value; returns TypeError on mismatch.
  Status AppendValue(const Value& v);

  /// Value at `row` (NULL-aware). Not bounds-checked in release builds.
  Value GetValue(size_t row) const;

  /// Numeric view of a non-null cell: doubles as-is, ints widened, bools as
  /// 0/1. Asserts on string columns.
  double GetNumeric(size_t row) const;

  /// Typed payload accessors. Only valid for the matching type().
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<uint8_t>& validity() const { return validity_; }

  /// String columns: the dictionary-code payload (Dictionary::kNullCode for
  /// NULL cells) and the shared dictionary. dictionary() is non-null for
  /// every string column.
  const std::vector<int32_t>& codes() const { return codes_; }
  const DictionaryPtr& dictionary() const { return dict_; }

  /// String cell by reference, without materializing a copy. Returns an
  /// empty string for NULL cells. Only valid for string columns.
  const std::string& StringAt(size_t row) const;

  /// New column holding rows at `indices` (duplicates allowed) — the
  /// positional gather used by filters and samples.
  Column Take(const std::vector<uint32_t>& indices) const;

  void Reserve(size_t n);

 private:
  DataType type_;
  std::vector<uint8_t> validity_;
  size_t null_count_ = 0;
  // Exactly one payload vector is populated, chosen by type_. Strings live
  // in dict_; codes_ is their dense per-row payload.
  std::vector<double> doubles_;
  std::vector<int64_t> ints_;
  std::vector<int32_t> codes_;
  std::vector<uint8_t> bools_;
  DictionaryPtr dict_;
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace blaeu::monet
