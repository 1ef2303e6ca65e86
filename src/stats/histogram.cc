#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "common/string_util.h"
#include "monet/column_stats.h"

namespace blaeu::stats {

using monet::Column;
using monet::DataType;
using monet::SelectionVector;

std::string Histogram::ToAscii(size_t width) const {
  std::ostringstream out;
  size_t max_count = 1;
  for (size_t c : counts) max_count = std::max(max_count, c);
  const size_t k = counts.size();
  const double bin_width = k > 0 ? (max - min) / static_cast<double>(k) : 0;
  for (size_t i = 0; i < k; ++i) {
    double lo = min + bin_width * static_cast<double>(i);
    double hi = lo + bin_width;
    size_t bar = (counts[i] * width) / max_count;
    out << "[" << FormatDouble(lo, 4) << ", " << FormatDouble(hi, 4)
        << (i + 1 == k ? "]" : ")") << "\t" << std::string(bar, '#') << " "
        << counts[i] << "\n";
  }
  if (null_count > 0) out << "NULL\t" << null_count << "\n";
  return out.str();
}

Result<Histogram> NumericHistogram(const Column& col,
                                   const SelectionVector& sel,
                                   size_t num_bins) {
  if (col.type() == DataType::kString) {
    return blaeu::Status::TypeError("histogram requires a numeric column");
  }
  if (num_bins == 0) return blaeu::Status::Invalid("num_bins must be > 0");
  Histogram h;
  h.counts.assign(num_bins, 0);
  bool first = true;
  std::vector<double> values;
  values.reserve(sel.size());
  for (uint32_t r : sel.rows()) {
    if (col.IsNull(r)) {
      ++h.null_count;
      continue;
    }
    double v = col.GetNumeric(r);
    values.push_back(v);
    if (first) {
      h.min = h.max = v;
      first = false;
    } else {
      h.min = std::min(h.min, v);
      h.max = std::max(h.max, v);
    }
  }
  if (values.empty()) return h;
  double range = h.max - h.min;
  for (double v : values) {
    size_t bin =
        range > 0
            ? std::min(num_bins - 1,
                       static_cast<size_t>((v - h.min) / range *
                                           static_cast<double>(num_bins)))
            : 0;
    ++h.counts[bin];
  }
  return h;
}

std::string FrequencyTable::ToAscii(size_t width) const {
  std::ostringstream out;
  size_t max_count = 1;
  for (const auto& [_, c] : entries) max_count = std::max(max_count, c);
  for (const auto& [name, c] : entries) {
    size_t bar = (c * width) / max_count;
    out << name << "\t" << std::string(bar, '#') << " " << c << "\n";
  }
  if (null_count > 0) out << "NULL\t" << null_count << "\n";
  if (distinct > entries.size()) {
    out << "... (" << distinct - entries.size() << " more values)\n";
  }
  return out.str();
}

FrequencyTable CategoricalFrequencies(const Column& col,
                                      const SelectionVector& sel,
                                      size_t max_entries) {
  monet::ValueCounts counts = monet::CountValues(col, sel, monet::kAllValues);
  FrequencyTable t;
  t.null_count = counts.null_count;
  t.distinct = counts.distinct;
  // Moved into an exact-size vector: the full ranking's buffer holds every
  // distinct value.
  const size_t kept = std::min(counts.ranked.size(), max_entries);
  t.entries.assign(std::make_move_iterator(counts.ranked.begin()),
                   std::make_move_iterator(counts.ranked.begin() + kept));
  return t;
}

std::string BinnedScatter::ToAscii() const {
  static const char kShades[] = " .:*#@";
  size_t max_count = 1;
  for (size_t c : counts) max_count = std::max(max_count, c);
  std::ostringstream out;
  for (size_t yi = y_bins; yi-- > 0;) {  // top row = largest y
    out << "|";
    for (size_t xi = 0; xi < x_bins; ++xi) {
      size_t c = At(yi, xi);
      size_t shade = c == 0 ? 0 : 1 + (c * 4) / max_count;
      out << kShades[std::min<size_t>(shade, 5)];
    }
    out << "|\n";
  }
  out << "x: [" << FormatDouble(x_min, 4) << ", " << FormatDouble(x_max, 4)
      << "]  y: [" << FormatDouble(y_min, 4) << ", " << FormatDouble(y_max, 4)
      << "]\n";
  return out.str();
}

Result<BinnedScatter> BivariateScatter(const Column& x, const Column& y,
                                       const SelectionVector& sel,
                                       size_t x_bins, size_t y_bins) {
  if (x.type() == DataType::kString || y.type() == DataType::kString) {
    return blaeu::Status::TypeError("scatter requires numeric columns");
  }
  if (x_bins == 0 || y_bins == 0) {
    return blaeu::Status::Invalid("bins must be > 0");
  }
  BinnedScatter s;
  s.x_bins = x_bins;
  s.y_bins = y_bins;
  s.counts.assign(x_bins * y_bins, 0);
  std::vector<std::pair<double, double>> pts;
  bool first = true;
  for (uint32_t r : sel.rows()) {
    if (x.IsNull(r) || y.IsNull(r)) continue;
    double xv = x.GetNumeric(r), yv = y.GetNumeric(r);
    pts.emplace_back(xv, yv);
    if (first) {
      s.x_min = s.x_max = xv;
      s.y_min = s.y_max = yv;
      first = false;
    } else {
      s.x_min = std::min(s.x_min, xv);
      s.x_max = std::max(s.x_max, xv);
      s.y_min = std::min(s.y_min, yv);
      s.y_max = std::max(s.y_max, yv);
    }
  }
  double xr = s.x_max - s.x_min, yr = s.y_max - s.y_min;
  for (auto [xv, yv] : pts) {
    size_t xi = xr > 0 ? std::min(x_bins - 1,
                                  static_cast<size_t>((xv - s.x_min) / xr *
                                                      static_cast<double>(
                                                          x_bins)))
                       : 0;
    size_t yi = yr > 0 ? std::min(y_bins - 1,
                                  static_cast<size_t>((yv - s.y_min) / yr *
                                                      static_cast<double>(
                                                          y_bins)))
                       : 0;
    ++s.counts[yi * x_bins + xi];
  }
  return s;
}

}  // namespace blaeu::stats
