// CART decision trees (Breiman et al. 1984, the paper's reference [2]).
// Blaeu's map builder trains a CART model "on the original tuples from the
// database, using the cluster IDs obtained previously as class labels"
// (paper §3); the resulting axis-aligned splits are the interpretable
// region descriptions shown on the map. Splits minimize Gini impurity (a
// split must lower it by more than 1e-7), and the grown tree is used as is,
// without pruning: max_depth and the sample-count floors bound its size.
// A node of fewer than 2 * min_samples_leaf rows is a leaf, since no split
// could leave min_samples_leaf rows on both sides; a numeric column offers
// at most 32 thresholds, and a string or bool column with more than 64
// categories at a node does not split it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "monet/predicate.h"
#include "monet/table.h"

namespace blaeu::tree {

/// CART training options.
struct CartOptions {
  size_t max_depth = 4;        ///< shallow trees keep maps readable
  size_t min_samples_leaf = 5;
};

/// \brief One node of a trained tree.
///
/// Internal nodes hold a binary test; rows passing the test go left.
/// Numeric test: value <= threshold. Categorical test: value in
/// `categories`. NULLs follow `null_goes_left`.
struct CartNode {
  // Leaf payload (valid for all nodes; internal nodes use it as fallback).
  int label = 0;     ///< majority class
  size_t count = 0;  ///< training rows reaching the node

  // Split payload (internal nodes only).
  bool is_leaf = true;
  size_t column = 0;  ///< index into the training table's schema
  bool categorical_split = false;
  double threshold = 0.0;
  std::vector<std::string> categories;  ///< left-branch category set
  bool null_goes_left = false;
  std::unique_ptr<CartNode> left;
  std::unique_ptr<CartNode> right;
};

/// \brief A trained CART classifier bound to a table schema.
class CartModel {
 public:
  /// Trains on `rows` of `table` with `labels[i]` as the class of
  /// `rows[i]`. Labels must be in [0, num_classes). `num_threads` is the
  /// thread budget of the per-column split search at large nodes
  /// (common/parallel.h: 0 = process default, 1 = serial); the trained tree
  /// is identical at any value.
  static Result<CartModel> Train(const monet::Table& table,
                                 const std::vector<uint32_t>& rows,
                                 const std::vector<int>& labels,
                                 const CartOptions& options = {},
                                 size_t num_threads = 0);

  /// Fraction of the training rows whose leaf's class is their label — the
  /// fidelity of the tree description to the clustering it approximates
  /// (experiment C5): each leaf's majority-class count, summed, over n.
  double fidelity() const { return fidelity_; }

  const CartNode& root() const { return *root_; }
  size_t num_classes() const { return num_classes_; }
  size_t Depth() const;
  size_t NumLeaves() const;

  /// The predicate of the edge from `node` to its left (branch=true) or
  /// right (branch=false) child, as a SQL-able condition.
  monet::Condition BranchCondition(const CartNode& node, bool branch) const;

 private:
  CartModel(std::unique_ptr<CartNode> root, std::vector<std::string> columns,
            size_t num_classes, double fidelity)
      : root_(std::move(root)),
        column_names_(std::move(columns)),
        num_classes_(num_classes),
        fidelity_(fidelity) {}

  std::unique_ptr<CartNode> root_;
  std::vector<std::string> column_names_;
  size_t num_classes_;
  double fidelity_;
};

}  // namespace blaeu::tree
