#include "stats/column_dependency.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "monet/sampling.h"
#include "stats/discretize.h"

namespace blaeu::stats {

using monet::Column;
using monet::DataType;
using monet::Table;

namespace {

/// Codes of key(r) in [0, num_keys) over `rows`, in order of first
/// appearance.
template <typename Key>
std::vector<uint32_t> FirstAppearanceCodes(const std::vector<uint32_t>& rows,
                                           size_t num_keys, Key key) {
  constexpr uint32_t kUnseen = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> codes(rows.size());
  std::vector<uint32_t> remap(num_keys, kUnseen);
  uint32_t next = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    uint32_t& slot = remap[key(rows[i])];
    if (slot == kUnseen) slot = next++;
    codes[i] = slot;
  }
  return codes;
}

}  // namespace

std::vector<uint32_t> EncodeColumnDiscrete(const Column& col,
                                           const std::vector<uint32_t>& rows,
                                           size_t num_bins) {
  if (col.type() == DataType::kString) {
    // Distinct strings and dictionary codes are one-to-one, so no cell is
    // materialized or hashed. NULL is one more key.
    const std::vector<int32_t>& cells = col.codes();
    const size_t null_key = col.dictionary()->size();
    return FirstAppearanceCodes(rows, null_key + 1, [&](uint32_t r) {
      return cells[r] == monet::Dictionary::kNullCode
                 ? null_key
                 : static_cast<size_t>(cells[r]);
    });
  }
  if (col.type() == DataType::kBool) {
    return FirstAppearanceCodes(rows, 3, [&](uint32_t r) {
      return col.IsNull(r) ? size_t{2} : size_t{col.bools()[r] ? 1u : 0u};
    });
  }
  // Numeric: equal-frequency binning over the non-null values, each cell
  // read once, straight from its typed payload. A NULL reads as NaN, so NaN
  // cells share the NULL code, the one after the bins.
  const bool is_double = col.type() == DataType::kDouble;  // else kInt64
  std::vector<double> values(rows.size());
  std::vector<double> ordered;
  ordered.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t r = rows[i];
    values[i] = col.IsNull(r) ? std::numeric_limits<double>::quiet_NaN()
                : is_double   ? col.doubles()[r]
                              : static_cast<double>(col.ints()[r]);
    if (!std::isnan(values[i])) ordered.push_back(values[i]);
  }
  Discretizer disc = Discretizer::EqualFrequency(std::move(ordered), num_bins);
  const uint32_t null_code = static_cast<uint32_t>(disc.num_bins());
  std::vector<uint32_t> codes(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    codes[i] = std::isnan(values[i])
                   ? null_code
                   : static_cast<uint32_t>(disc.Bin(values[i]));
  }
  return codes;
}

namespace {

/// Equal-frequency bins per numeric column. Few bins keep the estimator's
/// variance low on sampled rows (its bias is Miller-Madow corrected).
constexpr size_t kNumBins = 5;

/// One column over the sampled rows: its codes in [0, k), and the plug-in
/// entropy and support of their counts.
struct CodedColumn {
  std::vector<uint32_t> codes;
  uint32_t k = 0;
  size_t support = 0;    ///< codes that occur: the Miller-Madow K
  double entropy = 0.0;  ///< in nats
};

CodedColumn CountCodes(std::vector<uint32_t> codes,
                       const std::vector<double>& plogp) {
  CodedColumn col;
  col.codes = std::move(codes);
  col.k = *std::max_element(col.codes.begin(), col.codes.end()) + 1;
  std::vector<uint32_t> counts(col.k, 0);
  for (uint32_t c : col.codes) ++counts[c];
  for (uint32_t c : counts) {
    col.support += c > 0;
    col.entropy -= plogp[c];
  }
  return col;
}

/// The rows of column x grouped by code: element a lists, in order, the
/// rows whose code is a.
std::vector<std::vector<uint32_t>> RowsByCode(const CodedColumn& x) {
  std::vector<std::vector<uint32_t>> rows_by_code(x.k);
  for (size_t r = 0; r < x.codes.size(); ++r) {
    rows_by_code[x.codes[r]].push_back(static_cast<uint32_t>(r));
  }
  return rows_by_code;
}

/// H(X, Y) from a flat kx * ky count table, left zeroed for the next pair.
double DenseJointEntropy(const CodedColumn& x, const CodedColumn& y,
                         const std::vector<double>& plogp,
                         std::vector<uint32_t>* table) {
  // 32-bit index arithmetic: a dense pair has at most n < 2^32 cells.
  uint32_t* cells = table->data();
  for (size_t r = 0; r < x.codes.size(); ++r) {
    ++cells[x.codes[r] * y.k + y.codes[r]];
  }
  double h = 0.0;
  for (uint32_t c = 0; c < x.k * y.k; ++c) {
    h -= plogp[cells[c]];
    cells[c] = 0;
  }
  return h;
}

/// H(X, Y) one x code at a time: y is counted in a ky-sized counter that is
/// cleared through the list of codes it touched.
double GroupedJointEntropy(
    const std::vector<std::vector<uint32_t>>& x_rows_by_code,
    const CodedColumn& y, const std::vector<double>& plogp,
    std::vector<uint32_t>* counts, std::vector<uint32_t>* touched) {
  double h = 0.0;
  for (const std::vector<uint32_t>& rows : x_rows_by_code) {
    for (uint32_t r : rows) {
      const uint32_t b = y.codes[r];
      if ((*counts)[b]++ == 0) touched->push_back(b);
    }
    for (uint32_t b : *touched) {
      h -= plogp[(*counts)[b]];
      (*counts)[b] = 0;
    }
    touched->clear();
  }
  return h;
}

/// Normalized Miller-Madow MI from both marginals and the joint entropy.
double NormalizedMillerMadow(const CodedColumn& x, const CodedColumn& y,
                             double joint_entropy, size_t n) {
  const double mi = std::max(0.0, x.entropy + y.entropy - joint_entropy);
  // Miller-Madow: E[MI_plugin | independence] ~ (kx-1)(ky-1) / (2n).
  const double bias = (x.support - 1.0) * (y.support - 1.0) / (2.0 * n);
  return std::clamp(
      std::max(0.0, mi - bias) / std::sqrt(x.entropy * y.entropy), 0.0, 1.0);
}

}  // namespace

Result<std::vector<std::vector<double>>> DependencyMatrix(
    const Table& table, const DependencyOptions& options) {
  const size_t m = table.num_columns();
  Rng rng(kDependencySeed);
  std::vector<uint32_t> rows;
  if (options.sample_rows > 0 && table.num_rows() > options.sample_rows) {
    rows = monet::UniformSampleIndices(table.num_rows(), options.sample_rows,
                                       &rng)
               .rows();
  } else {
    rows.resize(table.num_rows());
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<uint32_t>(i);
    }
  }
  if (rows.empty()) return Status::Invalid("empty table");
  const size_t n = rows.size();

  // plogp[c] is p log p for p = c / n, and 0 for c = 0. Every entropy is
  // minus a sum of these terms, one per count, as the per-cell formula has
  // it; only the order of the sum depends on the counting.
  std::vector<double> plogp(n + 1, 0.0);
  for (size_t c = 1; c <= n; ++c) {
    const double p = static_cast<double>(c) / static_cast<double>(n);
    plogp[c] = p * std::log(p);
  }
  // Encode every column once; each pair reuses the codes and entropies.
  std::vector<CodedColumn> columns;
  for (size_t i = 0; i < m; ++i) {
    columns.push_back(CountCodes(
        EncodeColumnDiscrete(*table.column(i), rows, kNumBins), plogp));
  }

  std::vector<std::vector<double>> dep(m, std::vector<double>(m, 0.0));
  std::vector<uint32_t> table_cells(n, 0);  // a dense pair has <= n cells
  std::vector<uint32_t> counts(n + 1, 0);   // a grouped pair's y, k <= n + 1
  std::vector<uint32_t> touched;
  for (size_t i = 0; i < m; ++i) {
    dep[i][i] = 1.0;
    const CodedColumn& x = columns[i];
    if (x.entropy <= 0.0) continue;  // constant: no dependency signal
    std::vector<std::vector<uint32_t>> x_rows;  // for x's grouped pairs
    for (size_t j = i + 1; j < m; ++j) {
      const CodedColumn& y = columns[j];
      if (y.entropy <= 0.0) continue;
      // The flat table streams both code arrays and is the faster path;
      // grouping is what keeps a wide pair's memory O(n + kx + ky).
      double joint;
      if (size_t{x.k} * y.k <= n) {
        joint = DenseJointEntropy(x, y, plogp, &table_cells);
      } else {
        if (x_rows.empty()) x_rows = RowsByCode(x);
        joint = GroupedJointEntropy(x_rows, y, plogp, &counts, &touched);
      }
      dep[i][j] = dep[j][i] = NormalizedMillerMadow(x, y, joint, n);
    }
  }
  return dep;
}

}  // namespace blaeu::stats
