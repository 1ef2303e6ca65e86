// Preprocessing stage of the mapping pipeline (Figure 3, first box):
// "Blaeu removes the primary keys, it normalizes the continuous variables,
// and it introduces dummy binary variables to represent the categorical
// data (each dummy variable corresponds to one category). The result of
// this operation is a set of vectors, where each vector represents a tuple
// in the database."
//
// So the pipeline is fixed: detected primary-key columns are always dropped
// (monet::DetectPrimaryKeyColumns), and so are constant and all-NULL ones.
// String and bool columns, and numeric ones that look categorical (at most
// monet::kCategoricalMaxDistinct distinct values, monet::LooksCategorical),
// are dummy coded: one 0/1 feature for each of their 12 most frequent
// categories (monet::CountValues), the rarer ones sharing the all-zero
// encoding. Every other numeric column is z-scored. The map builder
// measures Euclidean distance between the resulting vectors.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "monet/selection.h"
#include "monet/table.h"
#include "stats/matrix.h"

namespace blaeu::core {

/// \brief Description of one feature of the preprocessed matrix.
struct FeatureInfo {
  size_t source_column;      ///< index into the input table's schema
  std::string source_name;   ///< column name
  bool is_categorical;       ///< a dummy feature of a categorical column
  std::string category;      ///< dummy features: which category ("" else)
};

/// \brief Output of preprocessing: the vectors plus bookkeeping.
struct PreprocessedData {
  stats::Matrix features;             ///< one row per selected tuple
  std::vector<FeatureInfo> feature_info;
  std::vector<uint32_t> rows;         ///< table row per matrix row
  std::vector<size_t> used_columns;   ///< table columns that contributed
  std::vector<size_t> dropped_keys;   ///< removed primary-key columns
};

/// Runs the preprocessing pipeline over the rows in `sel`: drops the
/// primary keys, then plans every remaining column over the selection and
/// fills one feature row per selected tuple. Missing values: numeric NaNs
/// are imputed at the (normalized) mean and missing categoricals get
/// all-zero dummies. `num_threads` is the thread budget of the per-column
/// planning and per-row fill loops (common/parallel.h: 0 = process default,
/// 1 = serial); the feature matrix is bit-identical at any value.
Result<PreprocessedData> Preprocess(const monet::Table& table,
                                    const monet::SelectionVector& sel,
                                    size_t num_threads = 0);

}  // namespace blaeu::core
