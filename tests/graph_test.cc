// Unit tests for the weighted dependency graph.
#include "cluster/graph.h"

#include <gtest/gtest.h>

namespace blaeu::cluster {
namespace {

TEST(GraphTest, WeightsAreSymmetric) {
  Graph g(4);
  g.SetWeight(0, 2, 0.7);
  EXPECT_DOUBLE_EQ(g.Weight(0, 2), 0.7);
  EXPECT_DOUBLE_EQ(g.Weight(2, 0), 0.7);
  EXPECT_DOUBLE_EQ(g.Weight(0, 1), 0.0);
}

TEST(GraphTest, NamedVertices) {
  Graph g({"unemployment", "health", "income"});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.name(1), "health");
}

TEST(GraphTest, CountEdgesAboveThreshold) {
  Graph g(3);
  g.SetWeight(0, 1, 0.5);
  g.SetWeight(1, 2, 0.2);
  EXPECT_EQ(g.CountEdges(0.0), 2u);
  EXPECT_EQ(g.CountEdges(0.3), 1u);
  EXPECT_EQ(g.CountEdges(0.9), 0u);
}

TEST(GraphTest, DotOutputContainsVerticesAndEdges) {
  Graph g({"alpha", "beta"});
  g.SetWeight(0, 1, 0.42);
  std::string dot = g.ToDot(0.0);
  EXPECT_NE(dot.find("graph dependency"), std::string::npos);
  EXPECT_NE(dot.find("alpha"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("0.42"), std::string::npos);
}

TEST(GraphTest, DotOmitsWeakEdgesAndColorsGroups) {
  Graph g({"a", "b", "c"});
  g.SetWeight(0, 1, 0.9);
  g.SetWeight(1, 2, 0.05);
  std::vector<int> groups = {0, 0, 1};
  std::string dot = g.ToDot(0.2, &groups);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_EQ(dot.find("n1 -- n2"), std::string::npos);
  EXPECT_NE(dot.find("lightblue"), std::string::npos);
}

}  // namespace
}  // namespace blaeu::cluster
