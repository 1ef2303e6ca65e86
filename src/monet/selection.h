// Selection vectors: sorted row-id sets produced by filters and samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace blaeu::monet {

/// \brief A subset of row positions in a table, kept sorted ascending.
///
/// The MonetDB-style intermediate: filters produce selections, selections
/// compose by intersection, and materialization (Table::Take) is deferred
/// until the data is actually needed.
class SelectionVector {
 public:
  SelectionVector() = default;
  explicit SelectionVector(std::vector<uint32_t> rows)
      : rows_(std::move(rows)) {}

  /// All rows of a table of `n` rows.
  static SelectionVector All(size_t n);

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  uint32_t operator[](size_t i) const { return rows_[i]; }
  const std::vector<uint32_t>& rows() const { return rows_; }

  void push_back(uint32_t row) { rows_.push_back(row); }

  /// Set intersection with another sorted selection.
  SelectionVector Intersect(const SelectionVector& other) const;

  bool operator==(const SelectionVector& other) const {
    return rows_ == other.rows_;
  }

  /// Stable 64-bit content fingerprint (FNV-1a over size + row ids). Equal
  /// selections always fingerprint equal; distinct selections collide with
  /// probability ~2^-64. Used as the selection component of map-cache keys.
  uint64_t Fingerprint() const;

 private:
  std::vector<uint32_t> rows_;
};

}  // namespace blaeu::monet
