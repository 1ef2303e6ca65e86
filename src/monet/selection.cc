#include "monet/selection.h"

#include <algorithm>
#include <iterator>
#include <numeric>

namespace blaeu::monet {

SelectionVector SelectionVector::All(size_t n) {
  std::vector<uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return SelectionVector(std::move(rows));
}

SelectionVector SelectionVector::Intersect(
    const SelectionVector& other) const {
  std::vector<uint32_t> out;
  out.reserve(std::min(rows_.size(), other.rows_.size()));
  std::set_intersection(rows_.begin(), rows_.end(), other.rows_.begin(),
                        other.rows_.end(), std::back_inserter(out));
  return SelectionVector(std::move(out));
}

uint64_t SelectionVector::Fingerprint() const {
  // FNV-1a over the length followed by every row id, 4 bytes at a time.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
  };
  mix(static_cast<uint64_t>(rows_.size()));
  for (uint32_t r : rows_) mix(static_cast<uint64_t>(r) + 1);
  return h;
}

}  // namespace blaeu::monet
