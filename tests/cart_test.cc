// Unit tests for the CART decision tree (the map-description stage).
#include "tree/cart.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/map_builder.h"

namespace blaeu::tree {
namespace {

using monet::DataType;
using monet::Schema;
using monet::TableBuilder;
using monet::TablePtr;
using monet::Value;

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}

/// One numeric column; class 1 iff x > 10.
TablePtr ThresholdTable(size_t n, std::vector<int>* labels) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  Rng rng(1);
  labels->clear();
  for (size_t i = 0; i < n; ++i) {
    double x = rng.NextUniform(0.0, 20.0);
    EXPECT_TRUE(b.AppendRow({Value::Double(x)}).ok());
    labels->push_back(x > 10.0 ? 1 : 0);
  }
  return *b.Finish();
}

TEST(CartTest, LearnsSingleNumericThreshold) {
  std::vector<int> labels;
  TablePtr t = ThresholdTable(200, &labels);
  CartOptions opt;
  opt.max_thresholds = 0;  // consider every midpoint: exact split expected
  auto model = *CartModel::Train(*t, AllRows(200), labels, opt);
  EXPECT_EQ(model.Depth(), 1u);
  EXPECT_EQ(model.NumLeaves(), 2u);
  EXPECT_DOUBLE_EQ(model.fidelity(), 1.0);
  // The learned threshold is near 10.
  EXPECT_FALSE(model.root().is_leaf);
  EXPECT_NEAR(model.root().threshold, 10.0, 0.5);
}

TEST(CartTest, LearnsCategoricalSplit) {
  TableBuilder b(Schema({{"genre", DataType::kString}}));
  std::vector<int> labels;
  const char* genres[] = {"Action", "Drama", "Comedy", "Horror"};
  Rng rng(2);
  for (size_t i = 0; i < 200; ++i) {
    const char* g = genres[rng.NextBounded(4)];
    ASSERT_TRUE(b.AppendRow({Value::Str(g)}).ok());
    // Class 1 for Action/Horror.
    labels.push_back(
        (std::string(g) == "Action" || std::string(g) == "Horror") ? 1 : 0);
  }
  TablePtr t = *b.Finish();
  auto model = *CartModel::Train(*t, AllRows(200), labels);
  EXPECT_DOUBLE_EQ(model.fidelity(), 1.0);
  EXPECT_TRUE(model.root().categorical_split);
}

TEST(CartTest, TwoLevelInteraction) {
  // Class depends on both columns: x <= 5 -> 0; x > 5 & y <= 3 -> 1; else 2.
  TableBuilder b(Schema({{"x", DataType::kDouble}, {"y", DataType::kDouble}}));
  std::vector<int> labels;
  Rng rng(3);
  for (size_t i = 0; i < 400; ++i) {
    double x = rng.NextUniform(0, 10), y = rng.NextUniform(0, 6);
    ASSERT_TRUE(b.AppendRow({Value::Double(x), Value::Double(y)}).ok());
    labels.push_back(x <= 5 ? 0 : (y <= 3 ? 1 : 2));
  }
  TablePtr t = *b.Finish();
  CartOptions opt;
  opt.max_depth = 3;
  auto model = *CartModel::Train(*t, AllRows(400), labels, opt);
  EXPECT_GT(model.fidelity(), 0.97);
  EXPECT_GE(model.NumLeaves(), 3u);
}

TEST(CartTest, MaxDepthRespected) {
  std::vector<int> labels;
  TablePtr t = ThresholdTable(300, &labels);
  // Noisy labels force deep trees unless capped.
  Rng rng(4);
  for (auto& l : labels) {
    if (rng.NextBernoulli(0.3)) l = 1 - l;
  }
  CartOptions opt;
  opt.max_depth = 2;
  opt.min_samples_leaf = 1;
  opt.min_samples_split = 2;
  auto model = *CartModel::Train(*t, AllRows(300), labels, opt);
  EXPECT_LE(model.Depth(), 2u);
  EXPECT_LE(model.NumLeaves(), 4u);
}

TEST(CartTest, MinSamplesLeafRespected) {
  std::vector<int> labels;
  TablePtr t = ThresholdTable(100, &labels);
  CartOptions opt;
  opt.min_samples_leaf = 30;
  auto model = *CartModel::Train(*t, AllRows(100), labels, opt);
  // Count training rows at each leaf via prediction counts.
  std::function<void(const CartNode&)> check = [&](const CartNode& node) {
    if (node.is_leaf) {
      EXPECT_GE(node.count, 30u);
      return;
    }
    check(*node.left);
    check(*node.right);
  };
  check(model.root());
}

TEST(CartTest, PureNodeStopsEarly) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  std::vector<int> labels(50, 0);  // single class
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Double(static_cast<double>(i))}).ok());
  }
  TablePtr t = *b.Finish();
  auto model = *CartModel::Train(*t, AllRows(50), labels);
  EXPECT_TRUE(model.root().is_leaf);
  EXPECT_EQ(model.root().label, 0);
}

// A map's tree fidelity counts the sampled rows whose leaf's class is
// their own cluster, wherever null_goes_left routed them. x holds 20 rows
// at 10, then 20 at 0, then 10 NULLs, which the features place halfway:
// they tie between the two medoids and take the first, the cluster at 10.
// The root splits x at 5 with 20 rows a side, so the NULLs join the left
// side, the cluster at 0, whose constant x cannot split again.
TEST(CartTest, FidelityCountsNullRoutedRows) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(b.AppendRow({i < 20   ? Value::Double(10.0)
                             : i < 40 ? Value::Double(0.0)
                                      : Value::Null()})
                    .ok());
  }
  TablePtr t = *b.Finish();
  core::MapOptions opt;
  opt.fixed_k = 2;
  auto map = *core::BuildMap(*t, opt);
  ASSERT_EQ(map.regions.size(), 3u);
  EXPECT_EQ(map.regions[1].edge.ToSql(), "\"x\" <= 5");
  // The SQL edges keep the NULL rows out of both leaves.
  EXPECT_EQ(map.regions[1].tuple_count + map.regions[2].tuple_count, 40u);
  EXPECT_DOUBLE_EQ(map.tree_fidelity, 0.8);
}

TEST(CartTest, BranchConditionsMatchSplit) {
  std::vector<int> labels;
  TablePtr t = ThresholdTable(200, &labels);
  auto model = *CartModel::Train(*t, AllRows(200), labels);
  ASSERT_FALSE(model.root().is_leaf);
  monet::Condition left = model.BranchCondition(model.root(), true);
  monet::Condition right = model.BranchCondition(model.root(), false);
  EXPECT_EQ(left.op, monet::CompareOp::kLe);
  EXPECT_EQ(right.op, monet::CompareOp::kGt);
  EXPECT_EQ(left.column, "x");
  // Every row satisfies exactly one branch (no nulls here).
  for (uint32_t r = 0; r < 50; ++r) {
    const monet::SelectionVector row({r});
    bool l = !monet::Conjunction({left}).EvaluateOn(*t, row)->empty();
    bool rr = !monet::Conjunction({right}).EvaluateOn(*t, row)->empty();
    EXPECT_NE(l, rr);
  }
}

TEST(CartTest, InvalidInputsRejected) {
  std::vector<int> labels;
  TablePtr t = ThresholdTable(10, &labels);
  EXPECT_FALSE(CartModel::Train(*t, {}, {}).ok());
  EXPECT_FALSE(CartModel::Train(*t, AllRows(10), {0, 1}).ok());
  std::vector<int> negative(10, -1);
  EXPECT_FALSE(CartModel::Train(*t, AllRows(10), negative).ok());
}

}  // namespace
}  // namespace blaeu::tree
