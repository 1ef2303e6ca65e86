#include "cluster/graph.h"

#include <cassert>
#include <sstream>

#include "common/string_util.h"

namespace blaeu::cluster {

Graph::Graph(size_t n) : weights_(n * n, 0.0) {
  names_.reserve(n);
  for (size_t i = 0; i < n; ++i) names_.push_back("v" + std::to_string(i));
}

Graph::Graph(std::vector<std::string> names)
    : names_(std::move(names)), weights_(names_.size() * names_.size(), 0.0) {}

void Graph::SetWeight(size_t u, size_t v, double w) {
  assert(u < num_vertices() && v < num_vertices());
  weights_[u * num_vertices() + v] = w;
  weights_[v * num_vertices() + u] = w;
}

double Graph::Weight(size_t u, size_t v) const {
  assert(u < num_vertices() && v < num_vertices());
  return weights_[u * num_vertices() + v];
}

size_t Graph::CountEdges(double threshold) const {
  size_t count = 0;
  for (size_t u = 0; u < num_vertices(); ++u) {
    for (size_t v = u + 1; v < num_vertices(); ++v) {
      if (Weight(u, v) > threshold) ++count;
    }
  }
  return count;
}

std::string Graph::ToDot(double min_weight,
                         const std::vector<int>* groups) const {
  static const char* kPalette[] = {"lightblue",  "lightyellow", "lightpink",
                                   "lightgreen", "lavender",    "wheat",
                                   "lightcyan",  "mistyrose"};
  std::ostringstream out;
  out << "graph dependency {\n  node [style=filled, shape=box];\n";
  for (size_t v = 0; v < num_vertices(); ++v) {
    out << "  n" << v << " [label=\"" << names_[v] << "\"";
    if (groups != nullptr && v < groups->size() && (*groups)[v] >= 0) {
      out << ", fillcolor=" << kPalette[(*groups)[v] % 8];
    } else {
      out << ", fillcolor=white";
    }
    out << "];\n";
  }
  for (size_t u = 0; u < num_vertices(); ++u) {
    for (size_t v = u + 1; v < num_vertices(); ++v) {
      double w = Weight(u, v);
      if (w <= min_weight) continue;
      out << "  n" << u << " -- n" << v << " [penwidth="
          << FormatDouble(0.5 + 4.0 * w, 3) << ", label=\""
          << FormatDouble(w, 2) << "\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace blaeu::cluster
