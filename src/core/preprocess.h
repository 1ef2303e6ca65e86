// Preprocessing stage of the mapping pipeline (Figure 3, first box):
// "Blaeu removes the primary keys, it normalizes the continuous variables,
// and it introduces dummy binary variables to represent the categorical
// data (each dummy variable corresponds to one category). The result of
// this operation is a set of vectors, where each vector represents a tuple
// in the database."
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "monet/selection.h"
#include "monet/table.h"
#include "stats/matrix.h"
#include "stats/normalize.h"

namespace blaeu::core {

/// How categorical columns enter the feature space.
enum class CategoricalEncoding {
  kDummy,   ///< one 0/1 feature per category (paper's choice)
  kGower,   ///< keep one code feature per column; use Gower distance
};

/// Preprocessing options.
struct PreprocessOptions {
  CategoricalEncoding encoding = CategoricalEncoding::kDummy;
  /// Drop detected primary-key columns.
  bool remove_primary_keys = true;
  /// z-score continuous features (false: min-max).
  bool zscore = true;
  /// Cap on dummy features per categorical column; rarer categories share
  /// an "other" feature. Keeps wide categorical columns from dominating.
  size_t max_categories = 12;
  /// Numeric columns with at most this many distinct values are treated as
  /// categorical.
  size_t categorical_distinct_threshold = 10;
  /// Thread budget for the per-column planning and per-row fill loops
  /// (common/parallel.h: 0 = process default, 1 = serial). The feature
  /// matrix is bit-identical at any value.
  size_t num_threads = 0;
  /// Test knob: route categorical planning and filling through the
  /// dictionary-code fast paths (default) or the generic string paths. The
  /// output is byte-identical either way — the flag exists so tests can
  /// assert exactly that. Not part of the map-options fingerprint
  /// (core/map_cache.cc FingerprintMapOptions): it cannot change any output.
  bool use_dictionary = true;
};

/// \brief Description of one feature of the preprocessed matrix.
struct FeatureInfo {
  size_t source_column;      ///< index into the input table's schema
  std::string source_name;   ///< column name
  bool is_categorical;       ///< dummy or Gower-coded categorical
  std::string category;      ///< dummy features: which category ("" else)
};

/// \brief Output of preprocessing: the vectors plus bookkeeping.
struct PreprocessedData {
  stats::Matrix features;             ///< one row per selected tuple
  std::vector<FeatureInfo> feature_info;
  std::vector<uint32_t> rows;         ///< table row per matrix row
  std::vector<size_t> used_columns;   ///< table columns that contributed
  std::vector<size_t> dropped_keys;   ///< removed primary-key columns
  /// Per-feature categorical mask (for Gower).
  std::vector<bool> categorical_mask() const;
};

/// \brief One column's fitted preprocessing decisions.
struct ColumnPlan {
  size_t column = 0;        ///< index into the input table's schema
  bool categorical = false;
  std::vector<std::string> categories;  ///< dummy layout (kDummy only)
  stats::Normalizer normalizer = stats::Normalizer::ZScore({});
  std::unordered_map<std::string, int> code;  ///< kGower category codes
  double impute = 0.0;      ///< numeric NaN replacement (normalized mean)

  // -- Dictionary fast path (string columns, use_dictionary) --

  /// The dictionary `dict_ranks` was built against. FillFeatures takes the
  /// code-indexed path only when the column at fill time shares this exact
  /// dictionary (pointer identity) — otherwise codes would not be
  /// comparable and it falls back to the string path. Derived tables
  /// (Take/Project) share their source's dictionaries, so reuse across
  /// Zoom/Project keeps the fast path.
  monet::DictionaryPtr dict;
  /// Dictionary code -> rank in `categories` (-1 = not a kept category).
  /// Codes appended to the dictionary after planning index past the end and
  /// are treated as unranked.
  std::vector<int32_t> dict_ranks;
};

/// \brief The product of the planning phase: everything Preprocess derives
/// from (table, selection, options) before touching the feature matrix.
/// Filling a matrix from a plan is a pure function of the plan and the rows
/// being filled.
struct PreprocessPlan {
  std::vector<ColumnPlan> columns;        ///< in schema order
  std::vector<FeatureInfo> feature_info;  ///< resulting feature layout
  std::vector<size_t> used_columns;
  std::vector<size_t> dropped_keys;
  CategoricalEncoding encoding = CategoricalEncoding::kDummy;

  size_t num_features() const { return feature_info.size(); }
};

/// Phase 1: fits per-column plans (type decision, category ranking,
/// normalizer, primary-key removal) over the rows in `sel`.
Result<PreprocessPlan> PlanPreprocess(const monet::Table& table,
                                      const monet::SelectionVector& sel,
                                      const PreprocessOptions& options = {});

/// Phase 2: fills one feature row per row of `sel` according to `plan`.
/// Bit-identical at any thread count.
Result<PreprocessedData> FillFeatures(const monet::Table& table,
                                      const monet::SelectionVector& sel,
                                      const PreprocessPlan& plan,
                                      size_t num_threads = 0);

/// Runs the preprocessing pipeline over the rows in `sel` (= PlanPreprocess
/// followed by FillFeatures).
///
/// Missing values: with kDummy encoding, numeric NaNs are imputed at the
/// (normalized) mean and missing categoricals get all-zero dummies; with
/// kGower they stay NaN and the Gower metric skips them pairwise.
Result<PreprocessedData> Preprocess(const monet::Table& table,
                                    const monet::SelectionVector& sel,
                                    const PreprocessOptions& options = {});

}  // namespace blaeu::core
