#include "tree/cart.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "common/parallel.h"

namespace blaeu::tree {

using monet::Column;
using monet::Condition;
using monet::DataType;
using monet::Table;

namespace {

/// Nodes with fewer training rows than this search their split serially:
/// the per-column work is too small to amortize a pool dispatch.
constexpr size_t kParallelSplitMinRows = 256;

/// A split must reduce weighted impurity by more than this.
constexpr double kMinImpurityDecrease = 1e-7;

/// Gini impurity of a class histogram.
double Impurity(const std::vector<size_t>& counts, size_t total) {
  if (total == 0) return 0.0;
  const double dt = static_cast<double>(total);
  double v = 1.0;
  for (size_t c : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / dt;
    v -= p * p;
  }
  return v;
}

struct SplitSpec {
  bool found = false;
  size_t column = 0;
  bool categorical = false;
  double threshold = 0.0;
  std::vector<std::string> categories;
  bool null_goes_left = false;
  double impurity_decrease = 0.0;
};

struct TrainContext {
  const Table* table;
  const std::vector<int>* labels;  // parallel to the *original* rows vector
  size_t num_classes;
  CartOptions options;
  size_t num_threads = 0;
};

/// Class histogram of a row subset. `idx` indexes into ctx.labels.
std::vector<size_t> CountClasses(const TrainContext& ctx,
                                 const std::vector<size_t>& idx) {
  std::vector<size_t> counts(ctx.num_classes, 0);
  for (size_t i : idx) ++counts[(*ctx.labels)[i]];
  return counts;
}

/// Best numeric split of `col` over the subset.
void BestNumericSplit(const TrainContext& ctx,
                      const std::vector<uint32_t>& rows,
                      const std::vector<size_t>& idx, size_t col_idx,
                      double parent_impurity, SplitSpec* best) {
  const Column& col = *ctx.table->column(col_idx);
  // Collect (value, label) pairs; count nulls per class.
  std::vector<std::pair<double, int>> pairs;
  pairs.reserve(idx.size());
  std::vector<size_t> null_counts(ctx.num_classes, 0);
  size_t nulls = 0;
  for (size_t i : idx) {
    uint32_t r = rows[i];
    int label = (*ctx.labels)[i];
    if (col.IsNull(r)) {
      ++null_counts[label];
      ++nulls;
    } else {
      pairs.emplace_back(col.GetNumeric(r), label);
    }
  }
  if (pairs.size() < 2) return;
  std::sort(pairs.begin(), pairs.end());
  if (pairs.front().first == pairs.back().first) return;  // constant

  const size_t total = idx.size();
  // Candidate thresholds: midpoints between distinct consecutive values,
  // optionally thinned to quantiles.
  std::vector<size_t> boundaries;  // index i: split between i-1 and i
  for (size_t i = 1; i < pairs.size(); ++i) {
    if (pairs[i].first != pairs[i - 1].first) boundaries.push_back(i);
  }
  if (ctx.options.max_thresholds > 0 &&
      boundaries.size() > ctx.options.max_thresholds) {
    std::vector<size_t> thinned;
    for (size_t t = 0; t < ctx.options.max_thresholds; ++t) {
      size_t pick = (t * boundaries.size()) / ctx.options.max_thresholds;
      thinned.push_back(boundaries[pick]);
    }
    thinned.erase(std::unique(thinned.begin(), thinned.end()), thinned.end());
    boundaries = std::move(thinned);
  }

  // Prefix class counts for O(1) impurity at each boundary.
  std::vector<size_t> total_counts = CountClasses(ctx, idx);
  std::vector<size_t> left_counts(ctx.num_classes, 0);
  size_t next_boundary = 0;
  for (size_t i = 0; i < pairs.size() && next_boundary < boundaries.size();
       ++i) {
    if (i == boundaries[next_boundary]) {
      // Evaluate split "value <= midpoint" with left = pairs[0..i).
      // Nulls join the larger side.
      size_t left_n = i;
      size_t right_n = pairs.size() - i;
      bool null_left = left_n >= right_n;
      std::vector<size_t> lc = left_counts;
      std::vector<size_t> rc(ctx.num_classes);
      for (size_t c = 0; c < ctx.num_classes; ++c) {
        rc[c] = total_counts[c] - lc[c] - null_counts[c];
      }
      if (null_left) {
        for (size_t c = 0; c < ctx.num_classes; ++c) lc[c] += null_counts[c];
        left_n += nulls;
      } else {
        right_n += nulls;
      }
      if (left_n >= ctx.options.min_samples_leaf &&
          right_n >= ctx.options.min_samples_leaf) {
        double wl = static_cast<double>(left_n) / static_cast<double>(total);
        double wr = static_cast<double>(right_n) / static_cast<double>(total);
        double child = wl * Impurity(lc, left_n) + wr * Impurity(rc, right_n);
        double decrease = parent_impurity - child;
        if (decrease > best->impurity_decrease) {
          best->found = true;
          best->column = col_idx;
          best->categorical = false;
          best->threshold =
              (pairs[i - 1].first + pairs[i].first) / 2.0;
          best->null_goes_left = null_left;
          best->impurity_decrease = decrease;
        }
      }
      ++next_boundary;
    }
    ++left_counts[pairs[i].second];
  }
}

/// Best categorical split of a string or bool column: greedy set growing
/// over categories ordered by their class profile (start from the best
/// single category, keep adding while impurity improves).
void BestCategoricalSplit(const TrainContext& ctx,
                          const std::vector<uint32_t>& rows,
                          const std::vector<size_t>& idx, size_t col_idx,
                          double parent_impurity, SplitSpec* best) {
  const Column& col = *ctx.table->column(col_idx);
  std::unordered_map<std::string, std::vector<size_t>> per_category;
  std::vector<size_t> null_counts(ctx.num_classes, 0);
  size_t nulls = 0;
  if (col.type() == DataType::kString) {
    // Count class profiles per dictionary code; category strings are
    // rendered once per distinct value when the map is assembled below.
    const std::vector<int32_t>& cell_codes = col.codes();
    std::unordered_map<int32_t, std::vector<size_t>> per_code;
    for (size_t i : idx) {
      const int32_t c = cell_codes[rows[i]];
      if (c == monet::Dictionary::kNullCode) {
        ++null_counts[(*ctx.labels)[i]];
        ++nulls;
        continue;
      }
      auto [it, _] = per_code.try_emplace(c);
      it->second.resize(ctx.num_classes, 0);
      ++it->second[(*ctx.labels)[i]];
    }
    const monet::Dictionary& dict = *col.dictionary();
    for (auto& [code, counts] : per_code) {
      per_category.emplace(dict.value(code), std::move(counts));
    }
  } else {  // kBool
    std::vector<size_t> counts[2];
    for (size_t i : idx) {
      uint32_t r = rows[i];
      if (col.IsNull(r)) {
        ++null_counts[(*ctx.labels)[i]];
        ++nulls;
        continue;
      }
      std::vector<size_t>& slot = counts[col.bools()[r] ? 1 : 0];
      slot.resize(ctx.num_classes, 0);
      ++slot[(*ctx.labels)[i]];
    }
    if (!counts[1].empty()) per_category.emplace("true", std::move(counts[1]));
    if (!counts[0].empty()) per_category.emplace("false", std::move(counts[0]));
  }
  if (per_category.size() < 2 || per_category.size() > 64) return;

  std::vector<size_t> total_counts = CountClasses(ctx, idx);
  const size_t total = idx.size();

  // Evaluate a candidate left-set given its class counts.
  auto evaluate = [&](const std::vector<size_t>& lc_base, size_t left_base) {
    size_t left_n = left_base;
    size_t right_n = total - nulls - left_base;
    bool null_left = left_n >= right_n;
    std::vector<size_t> lc = lc_base;
    std::vector<size_t> rc(ctx.num_classes);
    for (size_t c = 0; c < ctx.num_classes; ++c) {
      rc[c] = total_counts[c] - lc[c] - null_counts[c];
    }
    if (null_left) {
      for (size_t c = 0; c < ctx.num_classes; ++c) lc[c] += null_counts[c];
      left_n += nulls;
    } else {
      right_n += nulls;
    }
    if (left_n < ctx.options.min_samples_leaf ||
        right_n < ctx.options.min_samples_leaf) {
      return std::make_pair(-1.0, false);
    }
    double wl = static_cast<double>(left_n) / static_cast<double>(total);
    double wr = static_cast<double>(right_n) / static_cast<double>(total);
    double child = wl * Impurity(lc, left_n) + wr * Impurity(rc, right_n);
    return std::make_pair(parent_impurity - child, null_left);
  };

  // Greedy growth.
  std::vector<std::string> remaining;
  remaining.reserve(per_category.size());
  for (const auto& [cat, _] : per_category) remaining.push_back(cat);
  std::sort(remaining.begin(), remaining.end());  // determinism

  std::vector<std::string> chosen;
  std::vector<size_t> chosen_counts(ctx.num_classes, 0);
  size_t chosen_n = 0;
  double chosen_decrease = 0.0;
  bool chosen_null_left = false;

  while (!remaining.empty() && chosen.size() + 1 < per_category.size()) {
    double round_best = chosen_decrease;
    size_t round_pick = remaining.size();
    bool round_null_left = false;
    for (size_t r = 0; r < remaining.size(); ++r) {
      const auto& counts = per_category[remaining[r]];
      std::vector<size_t> lc = chosen_counts;
      size_t ln = chosen_n;
      for (size_t c = 0; c < ctx.num_classes; ++c) {
        lc[c] += counts[c];
        ln += counts[c];
      }
      auto [decrease, null_left] = evaluate(lc, ln);
      if (decrease > round_best) {
        round_best = decrease;
        round_pick = r;
        round_null_left = null_left;
      }
    }
    if (round_pick == remaining.size()) break;  // no improvement
    const auto& counts = per_category[remaining[round_pick]];
    for (size_t c = 0; c < ctx.num_classes; ++c) {
      chosen_counts[c] += counts[c];
      chosen_n += counts[c];
    }
    chosen.push_back(remaining[round_pick]);
    remaining.erase(remaining.begin() + round_pick);
    chosen_decrease = round_best;
    chosen_null_left = round_null_left;
  }

  if (!chosen.empty() && chosen_decrease > best->impurity_decrease) {
    best->found = true;
    best->column = col_idx;
    best->categorical = true;
    std::sort(chosen.begin(), chosen.end());
    best->categories = std::move(chosen);
    best->null_goes_left = chosen_null_left;
    best->impurity_decrease = chosen_decrease;
  }
}

bool RowGoesLeft(const CartNode& node, const Column& col, uint32_t row) {
  if (col.IsNull(row)) return node.null_goes_left;
  if (node.categorical_split) {
    // Categorical splits only exist on string/bool columns; both sides of
    // the comparison are referenced, not materialized.
    static const std::string kTrue = "true", kFalse = "false";
    const std::string& v = col.type() == DataType::kString
                               ? col.StringAt(row)
                               : (col.bools()[row] ? kTrue : kFalse);
    return std::binary_search(node.categories.begin(), node.categories.end(),
                              v);
  }
  return col.GetNumeric(row) <= node.threshold;
}

/// Grows the subtree of the rows `idx` and adds the majority-class count of
/// each of its leaves to `*majority`.
std::unique_ptr<CartNode> Grow(const TrainContext& ctx,
                               const std::vector<uint32_t>& rows,
                               const std::vector<size_t>& idx, size_t depth,
                               size_t* majority) {
  auto node = std::make_unique<CartNode>();
  std::vector<size_t> counts = CountClasses(ctx, idx);
  node->count = idx.size();
  size_t best_count = 0;
  for (size_t c = 0; c < ctx.num_classes; ++c) {
    if (counts[c] > best_count) {
      best_count = counts[c];
      node->label = static_cast<int>(c);
    }
  }
  double parent_impurity = Impurity(counts, idx.size());
  bool pure = best_count == idx.size();
  if (depth >= ctx.options.max_depth || pure ||
      idx.size() < ctx.options.min_samples_split) {
    *majority += best_count;
    return node;
  }

  // Search each column on its own, then merge in ascending column order
  // with a strict improvement test: the winner is the lowest column
  // achieving the maximal decrease, and within a column the earliest such
  // candidate, at any thread count.
  std::vector<SplitSpec> specs(ctx.table->num_columns());
  ParallelFor(
      0, specs.size(), 1,
      [&](size_t col_lo, size_t col_hi) {
        for (size_t c = col_lo; c < col_hi; ++c) {
          specs[c].impurity_decrease = kMinImpurityDecrease;
          DataType type = ctx.table->schema().field(c).type;
          if (type == DataType::kString || type == DataType::kBool) {
            BestCategoricalSplit(ctx, rows, idx, c, parent_impurity,
                                 &specs[c]);
          } else {
            BestNumericSplit(ctx, rows, idx, c, parent_impurity, &specs[c]);
          }
        }
      },
      idx.size() >= kParallelSplitMinRows ? ctx.num_threads : 1);
  SplitSpec best;
  best.impurity_decrease = kMinImpurityDecrease;
  for (SplitSpec& spec : specs) {
    if (spec.found && spec.impurity_decrease > best.impurity_decrease) {
      best = std::move(spec);
    }
  }
  if (!best.found) {
    *majority += best_count;
    return node;
  }

  node->is_leaf = false;
  node->column = best.column;
  node->categorical_split = best.categorical;
  node->threshold = best.threshold;
  node->categories = best.categories;
  node->null_goes_left = best.null_goes_left;

  const Column& col = *ctx.table->column(best.column);
  std::vector<size_t> left_idx, right_idx;
  for (size_t i : idx) {
    if (RowGoesLeft(*node, col, rows[i])) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  // Guard against degenerate partitions (should not happen given the
  // min_samples_leaf checks, but a NULL-routing corner could).
  if (left_idx.empty() || right_idx.empty()) {
    node->is_leaf = true;
    *majority += best_count;
    return node;
  }
  node->left = Grow(ctx, rows, left_idx, depth + 1, majority);
  node->right = Grow(ctx, rows, right_idx, depth + 1, majority);
  return node;
}

}  // namespace

Result<CartModel> CartModel::Train(const Table& table,
                                   const std::vector<uint32_t>& rows,
                                   const std::vector<int>& labels,
                                   const CartOptions& options,
                                   size_t num_threads) {
  if (rows.size() != labels.size()) {
    return Status::Invalid("rows/labels size mismatch");
  }
  if (rows.empty()) return Status::Invalid("empty training set");
  int max_label = 0;
  for (int l : labels) {
    if (l < 0) return Status::Invalid("negative class label");
    max_label = std::max(max_label, l);
  }
  TrainContext ctx;
  ctx.table = &table;
  ctx.labels = &labels;
  ctx.num_classes = static_cast<size_t>(max_label) + 1;
  ctx.options = options;
  ctx.num_threads = num_threads;

  std::vector<size_t> idx(rows.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  size_t majority = 0;
  std::unique_ptr<CartNode> root = Grow(ctx, rows, idx, 0, &majority);

  std::vector<std::string> names;
  names.reserve(table.num_columns());
  for (const auto& f : table.schema().fields()) names.push_back(f.name);
  return CartModel(
      std::move(root), std::move(names), ctx.num_classes,
      static_cast<double>(majority) / static_cast<double>(rows.size()));
}

namespace {

size_t DepthOf(const CartNode& node) {
  if (node.is_leaf) return 0;
  return 1 + std::max(DepthOf(*node.left), DepthOf(*node.right));
}

size_t LeavesOf(const CartNode& node) {
  if (node.is_leaf) return 1;
  return LeavesOf(*node.left) + LeavesOf(*node.right);
}

}  // namespace

size_t CartModel::Depth() const { return DepthOf(*root_); }
size_t CartModel::NumLeaves() const { return LeavesOf(*root_); }

Condition CartModel::BranchCondition(const CartNode& node, bool branch) const {
  assert(!node.is_leaf);
  const std::string& name = column_names_[node.column];
  if (node.categorical_split) {
    return Condition::InSet(name, node.categories, /*negated=*/!branch);
  }
  if (branch) {
    return Condition::Compare(name, monet::CompareOp::kLe,
                              monet::Value::Double(node.threshold));
  }
  return Condition::Compare(name, monet::CompareOp::kGt,
                            monet::Value::Double(node.threshold));
}

}  // namespace blaeu::tree
