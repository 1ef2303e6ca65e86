#include "stats/column_dependency.h"

#include "monet/sampling.h"
#include "stats/discretize.h"
#include "stats/entropy.h"

namespace blaeu::stats {

using monet::Column;
using monet::DataType;
using monet::Table;

std::vector<int> EncodeColumnDiscrete(const Column& col,
                                      const std::vector<uint32_t>& rows,
                                      size_t num_bins) {
  std::vector<int> codes(rows.size());
  if (col.type() == DataType::kString) {
    // Dictionary columns: dense remap of dictionary codes in order of first
    // appearance. Distinct strings and distinct codes are one-to-one, so
    // this emits exactly the codes the string-keyed path would — without
    // materializing or hashing a single cell.
    const std::vector<int32_t>& cell_codes = col.codes();
    std::vector<int> remap(col.dictionary()->size(), -2);  // -2 = unseen
    int next = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const int32_t c = cell_codes[rows[i]];
      if (c == monet::Dictionary::kNullCode) {
        codes[i] = -1;
        continue;
      }
      int& slot = remap[static_cast<size_t>(c)];
      if (slot == -2) slot = next++;
      codes[i] = slot;
    }
    return codes;
  }
  if (col.type() == DataType::kBool) {
    // Same first-appearance contract over the two bool renderings.
    int remap[2] = {-2, -2};
    int next = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      uint32_t r = rows[i];
      if (col.IsNull(r)) {
        codes[i] = -1;
        continue;
      }
      int& slot = remap[col.bools()[r] ? 1 : 0];
      if (slot == -2) slot = next++;
      codes[i] = slot;
    }
    return codes;
  }
  // Numeric: equal-frequency binning over the non-null values.
  std::vector<double> values;
  values.reserve(rows.size());
  for (uint32_t r : rows) {
    if (!col.IsNull(r)) values.push_back(col.GetNumeric(r));
  }
  Discretizer disc = Discretizer::EqualFrequency(values, num_bins);
  for (size_t i = 0; i < rows.size(); ++i) {
    uint32_t r = rows[i];
    codes[i] = col.IsNull(r) ? -1 : disc.Bin(col.GetNumeric(r));
  }
  return codes;
}

namespace {

/// Equal-frequency bins per numeric column. Few bins keep the estimator's
/// variance low on sampled rows (its bias is Miller-Madow corrected).
constexpr size_t kNumBins = 5;

}  // namespace

Result<std::vector<std::vector<double>>> DependencyMatrix(
    const Table& table, const DependencyOptions& options) {
  const size_t m = table.num_columns();
  Rng rng(options.seed);
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

  // Encode every column once; each pair reuses the codes.
  std::vector<std::vector<int>> encoded(m);
  for (size_t i = 0; i < m; ++i) {
    encoded[i] = EncodeColumnDiscrete(*table.column(i), rows, kNumBins);
  }

  std::vector<std::vector<double>> dep(m, std::vector<double>(m, 0.0));
  for (size_t i = 0; i < m; ++i) {
    dep[i][i] = 1.0;
    for (size_t j = i + 1; j < m; ++j) {
      dep[i][j] = dep[j][i] =
          NormalizedMutualInformationMM(encoded[i], encoded[j]);
    }
  }
  return dep;
}

}  // namespace blaeu::stats
