#include "tree/cart.h"

#include <algorithm>
#include <cassert>

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

/// A string or bool column with more categories than this at a node does
/// not split it.
constexpr size_t kMaxCategories = 64;

/// Candidate thresholds per numeric column at a node: more distinct-value
/// boundaries than this are thinned to this many quantiles.
constexpr size_t kMaxThresholds = 32;

/// Gini impurity of `n` rows, `count(c)` of them in class c.
template <typename Count>
double Gini(size_t n, size_t num_classes, Count count) {
  if (n == 0) return 0.0;
  const double dn = static_cast<double>(n);
  double v = 1.0;
  for (size_t c = 0; c < num_classes; ++c) {
    const size_t k = count(c);
    if (k == 0) continue;
    const double p = static_cast<double>(k) / dn;
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
  std::vector<int32_t> codes;  ///< the category codes of `categories`
  bool null_goes_left = false;
  double impurity_decrease = 0.0;
};

struct TrainContext {
  const Table* table;
  const std::vector<uint32_t>* rows;  // the training rows
  const std::vector<int>* labels;     // parallel to rows
  size_t num_classes;
  CartOptions options;
  size_t num_threads = 0;
};

/// The node being split, as all its candidate splits see it: its rows (as
/// positions into ctx.rows), their class counts and their Gini impurity.
struct Node {
  const std::vector<size_t>& idx;
  const std::vector<size_t>& counts;
  double impurity;
};

/// One column's NULL rows at a node, by class.
struct Nulls {
  explicit Nulls(size_t num_classes) : counts(num_classes, 0) {}
  void Add(int label) {
    ++counts[label];
    ++n;
  }
  std::vector<size_t> counts;
  size_t n = 0;
};

struct Score {
  double decrease;  ///< -1 when a side is below min_samples_leaf
  bool null_left;
};

/// Scores the split of `node` that sends left the `left_n` non-NULL rows
/// whose classes `left` counts, and right the column's other non-NULL rows.
/// The column's NULL rows join the larger side (the left on a tie).
///
/// A left side counts its NULLs in its classes, but a right side counts
/// them only in its size: its classes are total - left - NULLs. So NULLs
/// sent right read as a class of their own, and such a split scores worse
/// than it is. That arithmetic is kept because the maps depend on it.
Score ScoreSplit(const TrainContext& ctx, const Node& node,
                 const Nulls& nulls, const std::vector<size_t>& left,
                 size_t left_n) {
  const size_t total = node.idx.size();
  size_t right_n = total - nulls.n - left_n;
  const bool null_left = left_n >= right_n;
  (null_left ? left_n : right_n) += nulls.n;
  if (left_n < ctx.options.min_samples_leaf ||
      right_n < ctx.options.min_samples_leaf) {
    return {-1.0, null_left};
  }
  const size_t k = ctx.num_classes;
  const double wl = static_cast<double>(left_n) / static_cast<double>(total);
  const double wr = static_cast<double>(right_n) / static_cast<double>(total);
  const double left_gini = Gini(left_n, k, [&](size_t c) {
    return left[c] + (null_left ? nulls.counts[c] : 0);
  });
  const double right_gini = Gini(right_n, k, [&](size_t c) {
    return node.counts[c] - left[c] - nulls.counts[c];
  });
  return {node.impurity - (wl * left_gini + wr * right_gini), null_left};
}

/// Best numeric split of `col` at `node`: a threshold midway between two
/// consecutive distinct values, thinned to kMaxThresholds quantiles.
void BestNumericSplit(const TrainContext& ctx, const Node& node,
                      size_t col_idx, SplitSpec* best) {
  const Column& col = *ctx.table->column(col_idx);
  std::vector<std::pair<double, int>> pairs;  // (value, label), non-NULL
  pairs.reserve(node.idx.size());
  Nulls nulls(ctx.num_classes);
  for (size_t i : node.idx) {
    const uint32_t r = (*ctx.rows)[i];
    const int label = (*ctx.labels)[i];
    if (col.IsNull(r)) {
      nulls.Add(label);
    } else {
      pairs.emplace_back(col.GetNumeric(r), label);
    }
  }
  if (pairs.size() < 2) return;
  std::sort(pairs.begin(), pairs.end());
  if (pairs.front().first == pairs.back().first) return;  // constant

  std::vector<size_t> boundaries;  // index i: split between i-1 and i
  for (size_t i = 1; i < pairs.size(); ++i) {
    if (pairs[i].first != pairs[i - 1].first) boundaries.push_back(i);
  }
  if (boundaries.size() > kMaxThresholds) {
    std::vector<size_t> thinned;
    for (size_t t = 0; t < kMaxThresholds; ++t) {
      thinned.push_back(boundaries[(t * boundaries.size()) / kMaxThresholds]);
    }
    thinned.erase(std::unique(thinned.begin(), thinned.end()), thinned.end());
    boundaries = std::move(thinned);
  }

  // Prefix class counts: at boundary i the left side is pairs[0, i).
  std::vector<size_t> left(ctx.num_classes, 0);
  size_t next = 0;
  for (size_t i = 0; i < pairs.size() && next < boundaries.size(); ++i) {
    if (i == boundaries[next]) {
      const Score s = ScoreSplit(ctx, node, nulls, left, i);
      if (s.decrease > best->impurity_decrease) {
        best->found = true;
        best->column = col_idx;
        best->categorical = false;
        best->threshold = (pairs[i - 1].first + pairs[i].first) / 2.0;
        best->null_goes_left = s.null_left;
        best->impurity_decrease = s.decrease;
      }
      ++next;
    }
    ++left[pairs[i].second];
  }
}

/// The category code of a string or bool cell: the dictionary code of a
/// string, 0 or 1 for a bool, Dictionary::kNullCode for NULL.
int32_t CategoryCode(const Column& col, uint32_t row) {
  if (col.IsNull(row)) return monet::Dictionary::kNullCode;
  return col.type() == DataType::kString ? col.codes()[row]
                                         : (col.bools()[row] != 0 ? 1 : 0);
}

/// Best categorical split of a string or bool column at `node`: greedy set
/// growing over the node's categories in string order, from the best
/// single category, adding the best one while the decrease improves.
void BestCategoricalSplit(const TrainContext& ctx, const Node& node,
                          size_t col_idx, SplitSpec* best) {
  const Column& col = *ctx.table->column(col_idx);
  const size_t k = ctx.num_classes;
  std::vector<int32_t> codes;  // the node's categories, in order of first row
  std::vector<size_t> counts;  // codes.size() x k class counts
  Nulls nulls(k);
  for (size_t i : node.idx) {
    const int32_t code = CategoryCode(col, (*ctx.rows)[i]);
    const int label = (*ctx.labels)[i];
    if (code == monet::Dictionary::kNullCode) {
      nulls.Add(label);
      continue;
    }
    const size_t slot =
        std::find(codes.begin(), codes.end(), code) - codes.begin();
    if (slot == codes.size()) {
      if (slot == kMaxCategories) return;
      codes.push_back(code);
      counts.resize(counts.size() + k, 0);
    }
    ++counts[slot * k + label];
  }
  const size_t m = codes.size();
  if (m < 2) return;

  // Each category's name, rendered once: its dictionary string, by
  // reference, or a bool's false/true.
  static const std::string kBoolNames[2] = {"false", "true"};
  std::vector<const std::string*> names(m);
  for (size_t s = 0; s < m; ++s) {
    names[s] = col.type() == DataType::kString
                   ? &col.dictionary()->value(codes[s])
                   : &kBoolNames[codes[s]];
  }
  auto by_name = [&](size_t a, size_t b) { return *names[a] < *names[b]; };
  std::vector<size_t> remaining(m);
  for (size_t s = 0; s < m; ++s) remaining[s] = s;
  std::sort(remaining.begin(), remaining.end(), by_name);

  std::vector<size_t> chosen;
  std::vector<size_t> chosen_counts(k, 0), left(k);
  size_t chosen_n = 0;
  Score chosen_score{0.0, false};
  while (chosen.size() + 1 < m) {
    Score round = chosen_score;
    size_t pick = remaining.size();
    for (size_t r = 0; r < remaining.size(); ++r) {
      const size_t* cat = &counts[remaining[r] * k];
      size_t left_n = chosen_n;
      for (size_t c = 0; c < k; ++c) {
        left[c] = chosen_counts[c] + cat[c];
        left_n += cat[c];
      }
      const Score s = ScoreSplit(ctx, node, nulls, left, left_n);
      if (s.decrease > round.decrease) {
        round = s;
        pick = r;
      }
    }
    if (pick == remaining.size()) break;  // no improvement
    const size_t* cat = &counts[remaining[pick] * k];
    for (size_t c = 0; c < k; ++c) {
      chosen_counts[c] += cat[c];
      chosen_n += cat[c];
    }
    chosen.push_back(remaining[pick]);
    remaining.erase(remaining.begin() + pick);
    chosen_score = round;
  }

  if (!chosen.empty() && chosen_score.decrease > best->impurity_decrease) {
    best->found = true;
    best->column = col_idx;
    best->categorical = true;
    std::sort(chosen.begin(), chosen.end(), by_name);
    for (size_t s : chosen) {
      best->categories.push_back(*names[s]);
      best->codes.push_back(codes[s]);
    }
    best->null_goes_left = chosen_score.null_left;
    best->impurity_decrease = chosen_score.decrease;
  }
}

/// Grows the subtree of the rows `idx` and adds the majority-class count of
/// each of its leaves to `*majority`.
std::unique_ptr<CartNode> Grow(const TrainContext& ctx,
                               const std::vector<size_t>& idx, size_t depth,
                               size_t* majority) {
  auto node = std::make_unique<CartNode>();
  std::vector<size_t> counts(ctx.num_classes, 0);
  for (size_t i : idx) ++counts[(*ctx.labels)[i]];
  node->count = idx.size();
  size_t best_count = 0;
  for (size_t c = 0; c < ctx.num_classes; ++c) {
    if (counts[c] > best_count) {
      best_count = counts[c];
      node->label = static_cast<int>(c);
    }
  }
  // A node of fewer than 2 * min_samples_leaf rows cannot give both sides
  // min_samples_leaf rows, so no split search runs there.
  bool pure = best_count == idx.size();
  if (depth >= ctx.options.max_depth || pure ||
      idx.size() < 2 * ctx.options.min_samples_leaf) {
    *majority += best_count;
    return node;
  }
  const Node split_node{
      idx, counts,
      Gini(idx.size(), ctx.num_classes, [&](size_t c) { return counts[c]; })};

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
            BestCategoricalSplit(ctx, split_node, c, &specs[c]);
          } else {
            BestNumericSplit(ctx, split_node, c, &specs[c]);
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
  node->categories = std::move(best.categories);
  node->null_goes_left = best.null_goes_left;

  const Column& col = *ctx.table->column(best.column);
  auto goes_left = [&](uint32_t r) {
    if (col.IsNull(r)) return best.null_goes_left;
    if (!best.categorical) return col.GetNumeric(r) <= best.threshold;
    return std::find(best.codes.begin(), best.codes.end(),
                     CategoryCode(col, r)) != best.codes.end();
  };
  std::vector<size_t> left_idx, right_idx;
  for (size_t i : idx) {
    (goes_left((*ctx.rows)[i]) ? left_idx : right_idx).push_back(i);
  }
  // Guard against degenerate partitions (should not happen given the
  // min_samples_leaf checks, but a NULL-routing corner could).
  if (left_idx.empty() || right_idx.empty()) {
    node->is_leaf = true;
    *majority += best_count;
    return node;
  }
  node->left = Grow(ctx, left_idx, depth + 1, majority);
  node->right = Grow(ctx, right_idx, depth + 1, majority);
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
  ctx.rows = &rows;
  ctx.labels = &labels;
  ctx.num_classes = static_cast<size_t>(max_label) + 1;
  ctx.options = options;
  ctx.num_threads = num_threads;

  std::vector<size_t> idx(rows.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  size_t majority = 0;
  std::unique_ptr<CartNode> root = Grow(ctx, idx, 0, &majority);

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
  return Condition::Threshold(name, node.threshold, /*negated=*/!branch);
}

}  // namespace blaeu::tree
