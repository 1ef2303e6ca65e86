// Weighted undirected graphs. Blaeu's dependency graph (Figure 2) is one of
// these: vertices are columns, edge weights are statistical dependencies.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"

namespace blaeu::cluster {

/// \brief Dense weighted undirected graph with named vertices.
class Graph {
 public:
  /// Creates an empty graph (0 vertices).
  Graph() = default;
  /// Creates a graph with `n` vertices and no edges (weight 0).
  explicit Graph(size_t n);
  /// Creates a graph with the given vertex names.
  explicit Graph(std::vector<std::string> names);

  size_t num_vertices() const { return names_.size(); }
  const std::string& name(size_t v) const { return names_[v]; }
  const std::vector<std::string>& names() const { return names_; }

  /// Sets the symmetric edge weight (0 erases the edge).
  void SetWeight(size_t u, size_t v, double w);
  double Weight(size_t u, size_t v) const;

  /// Number of edges with weight > threshold.
  size_t CountEdges(double threshold = 0.0) const;

  /// Graphviz DOT rendering; edges below `min_weight` are omitted, edge
  /// thickness scales with weight. `groups` (optional, theme id per
  /// vertex) colors vertices by group.
  std::string ToDot(double min_weight = 0.0,
                    const std::vector<int>* groups = nullptr) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> weights_;  ///< dense n x n, symmetric
};

}  // namespace blaeu::cluster
