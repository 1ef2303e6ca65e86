// Unit tests for the CART decision tree (the map-description stage).
#include "tree/cart.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>

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
  auto model = *CartModel::Train(*t, AllRows(200), labels);
  // Of the 32 quantile boundaries, the root splits at one near 10.
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
  EXPECT_EQ(left.kind, monet::Condition::Kind::kThreshold);
  EXPECT_FALSE(left.negated);  // <=
  EXPECT_TRUE(right.negated);  // >
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

// ---------------------------------------------------------------------------
// Whole trees, node by node. Describe renders every node in preorder, one a
// line, indented by depth: a split's column, its threshold (%.17g) or left
// category set, the side its NULLs take and its row count; a leaf's label
// and row count.

void DescribeInto(const CartNode& node, size_t depth, std::string* out) {
  out->append(2 * depth, ' ');
  char buf[64];
  if (node.is_leaf) {
    std::snprintf(buf, sizeof(buf), "leaf %d n=%zu\n", node.label, node.count);
    out->append(buf);
    return;
  }
  out->append("col " + std::to_string(node.column));
  if (node.categorical_split) {
    out->append(" in {");
    for (size_t i = 0; i < node.categories.size(); ++i) {
      out->append((i > 0 ? "," : "") + node.categories[i]);
    }
    out->append("}");
  } else {
    std::snprintf(buf, sizeof(buf), " <= %.17g", node.threshold);
    out->append(buf);
  }
  out->append(node.null_goes_left ? " null=left" : " null=right");
  out->append(" n=" + std::to_string(node.count) + "\n");
  DescribeInto(*node.left, depth + 1, out);
  DescribeInto(*node.right, depth + 1, out);
}

std::string Describe(const CartModel& model) {
  std::string out;
  DescribeInto(model.root(), 0, &out);
  return out;
}

// Appends `n` rows of `v` with label `label`.
void AppendRows(TableBuilder* b, std::vector<int>* labels, size_t n,
                std::vector<Value> v, int label) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(b->AppendRow(v).ok());
    labels->push_back(label);
  }
}

// A bool column splits on its categories `false` and `true`. With no NULLs
// both sets make the same partition and tie, and the first in string order
// wins. With NULLs the larger side takes them, and only a left side counts
// them in its classes: {true} sends them left, where their class agrees,
// and beats {false}, which would send them right.
TEST(CartTest, BoolColumnSplitsOnFalseOrTrue) {
  {
    TableBuilder b(Schema({{"flag", DataType::kBool}}));
    std::vector<int> labels;
    AppendRows(&b, &labels, 30, {Value::Boolean(true)}, 1);
    AppendRows(&b, &labels, 20, {Value::Boolean(false)}, 0);
    TablePtr t = *b.Finish();
    auto model = *CartModel::Train(*t, AllRows(50), labels);
    EXPECT_EQ(Describe(model),
              "col 0 in {false} null=right n=50\n"
              "  leaf 0 n=20\n"
              "  leaf 1 n=30\n");
  }
  {
    TableBuilder b(Schema({{"flag", DataType::kBool}}));
    std::vector<int> labels;
    AppendRows(&b, &labels, 20, {Value::Boolean(false)}, 0);
    AppendRows(&b, &labels, 25, {Value::Boolean(true)}, 1);
    AppendRows(&b, &labels, 5, {Value::Null()}, 1);
    TablePtr t = *b.Finish();
    auto model = *CartModel::Train(*t, AllRows(50), labels);
    EXPECT_EQ(Describe(model),
              "col 0 in {true} null=left n=50\n"
              "  leaf 1 n=30\n"
              "  leaf 0 n=20\n");
    EXPECT_DOUBLE_EQ(model.fidelity(), 1.0);
  }
}

// A string column's NULLs join the larger side of its split: left when
// the chosen set is the larger, right when it is the smaller.
TEST(CartTest, StringColumnNullsGoToTheLargerSide) {
  {
    TableBuilder b(Schema({{"g", DataType::kString}}));
    std::vector<int> labels;
    AppendRows(&b, &labels, 30, {Value::Str("a")}, 0);
    AppendRows(&b, &labels, 15, {Value::Str("b")}, 1);
    AppendRows(&b, &labels, 5, {Value::Null()}, 0);
    TablePtr t = *b.Finish();
    auto model = *CartModel::Train(*t, AllRows(50), labels);
    EXPECT_EQ(Describe(model),
              "col 0 in {a} null=left n=50\n"
              "  leaf 0 n=35\n"
              "  leaf 1 n=15\n");
  }
  {
    TableBuilder b(Schema({{"g", DataType::kString}}));
    std::vector<int> labels;
    AppendRows(&b, &labels, 20, {Value::Str("c")}, 1);
    AppendRows(&b, &labels, 10, {Value::Str("a")}, 0);
    AppendRows(&b, &labels, 5, {Value::Null()}, 1);
    AppendRows(&b, &labels, 20, {Value::Str("b")}, 1);
    TablePtr t = *b.Finish();
    auto model = *CartModel::Train(*t, AllRows(55), labels);
    EXPECT_EQ(Describe(model),
              "col 0 in {a} null=right n=55\n"
              "  leaf 0 n=10\n"
              "  leaf 1 n=45\n");
  }
}

// 70 categories of 6 rows; a category k is class 1 iff k >= 30, and x is
// its half (k >= 35). At the root s has more than 64 categories and is
// never the split, though it would separate the classes exactly, so x
// splits. The left child holds 35 categories, and s splits it.
TEST(CartTest, MoreThan64CategoriesAtANodeNeverSplitIt) {
  TableBuilder b(Schema({{"s", DataType::kString}, {"x", DataType::kDouble}}));
  std::vector<int> labels;
  for (int k = 0; k < 70; ++k) {
    AppendRows(&b, &labels, 6,
               {Value::Str("c" + std::to_string(k)), Value::Double(k >= 35)},
               k >= 30 ? 1 : 0);
  }
  TablePtr t = *b.Finish();
  auto model = *CartModel::Train(*t, AllRows(420), labels);
  EXPECT_EQ(Describe(model),
            "col 1 <= 0.5 null=left n=420\n"
            "  col 0 in {c30,c31,c32,c33,c34} null=right n=210\n"
            "    leaf 1 n=30\n"
            "    leaf 0 n=180\n"
            "  leaf 1 n=210\n");
  EXPECT_DOUBLE_EQ(model.fidelity(), 1.0);
}

// A string and a numeric column that both separate the classes exactly tie
// on decrease; the lower column index wins, whichever type it has.
TEST(CartTest, TiedColumnsGoToTheLowerIndex) {
  auto train = [](bool string_first) {
    Schema schema = string_first
                        ? Schema({{"g", DataType::kString},
                                  {"x", DataType::kDouble}})
                        : Schema({{"x", DataType::kDouble},
                                  {"g", DataType::kString}});
    TableBuilder b(schema);
    std::vector<int> labels;
    for (int i = 0; i < 40; ++i) {
      Value g = Value::Str(i < 20 ? "a" : "b");
      Value x = Value::Double(i);
      EXPECT_TRUE(b.AppendRow(string_first ? std::vector<Value>{g, x}
                                           : std::vector<Value>{x, g})
                      .ok());
      labels.push_back(i < 20 ? 0 : 1);
    }
    TablePtr t = *b.Finish();
    return Describe(*CartModel::Train(*t, AllRows(40), labels));
  };
  EXPECT_EQ(train(true),
            "col 0 in {a} null=left n=40\n"
            "  leaf 0 n=20\n"
            "  leaf 1 n=20\n");
  EXPECT_EQ(train(false),
            "col 0 <= 19.5 null=left n=40\n"
            "  leaf 0 n=20\n"
            "  leaf 1 n=20\n");
}

// 600 rows reach the per-column parallel search at the root (256 rows and
// up) and at its children. A double with ties and NULLs, a bool and a
// string with NULLs, an int, and three noisy classes: the tree is the same
// at 1 and 4 threads, node for node.
TEST(CartTest, ParallelSearchGrowsTheSameTree) {
  TableBuilder b(Schema({{"d", DataType::kDouble},
                         {"flag", DataType::kBool},
                         {"s", DataType::kString},
                         {"n", DataType::kInt64}}));
  std::vector<int> labels;
  Rng rng(9);
  const char* words[] = {"red", "green", "blue", "cyan", "gold", "grey"};
  for (size_t i = 0; i < 600; ++i) {
    const double d = std::round(rng.NextUniform(0.0, 10.0) * 2.0) / 2.0;
    const bool flag = rng.NextBernoulli(0.4);
    const size_t w = rng.NextBounded(6);
    const int64_t n = rng.NextInt(0, 40);
    ASSERT_TRUE(
        b.AppendRow({rng.NextBernoulli(0.1) ? Value::Null() : Value::Double(d),
                     rng.NextBernoulli(0.1) ? Value::Null()
                                            : Value::Boolean(flag),
                     rng.NextBernoulli(0.1) ? Value::Null()
                                            : Value::Str(words[w]),
                     Value::Int(n)})
            .ok());
    int label = d < 4.0 ? 0 : (w < 3 ? 1 : 2);
    if (flag && n > 30) label = 2;
    if (rng.NextBernoulli(0.1)) label = static_cast<int>(rng.NextBounded(3));
    labels.push_back(label);
  }
  TablePtr t = *b.Finish();
  auto serial = *CartModel::Train(*t, AllRows(600), labels, {}, 1);
  auto parallel = *CartModel::Train(*t, AllRows(600), labels, {}, 4);
  EXPECT_EQ(Describe(serial), Describe(parallel));
  EXPECT_EQ(serial.fidelity(), parallel.fidelity());
  EXPECT_EQ(Describe(serial),
            "col 0 <= 3.75 null=right n=600\n"
            "  col 3 <= 32.5 null=left n=222\n"
            "    col 0 <= 2.25 null=left n=166\n"
            "      col 3 <= 17.5 null=left n=95\n"
            "        leaf 0 n=52\n"
            "        leaf 0 n=43\n"
            "      col 3 <= 17.5 null=right n=71\n"
            "        leaf 0 n=34\n"
            "        leaf 0 n=37\n"
            "    col 1 in {false} null=left n=56\n"
            "      col 3 <= 35.5 null=right n=37\n"
            "        leaf 0 n=11\n"
            "        leaf 0 n=26\n"
            "      col 3 <= 36.5 null=right n=19\n"
            "        leaf 2 n=9\n"
            "        leaf 2 n=10\n"
            "  col 1 in {false} null=left n=378\n"
            "    col 2 in {cyan,gold,grey} null=right n=232\n"
            "      col 0 <= 6.75 null=left n=99\n"
            "        leaf 2 n=57\n"
            "        leaf 2 n=42\n"
            "      col 3 <= 8.5 null=right n=133\n"
            "        leaf 1 n=26\n"
            "        leaf 1 n=107\n"
            "    col 3 <= 30.5 null=left n=146\n"
            "      col 2 in {blue,green,red} null=left n=113\n"
            "        leaf 1 n=62\n"
            "        leaf 2 n=51\n"
            "      col 3 <= 37.5 null=left n=33\n"
            "        leaf 2 n=21\n"
            "        leaf 2 n=12\n");
}

}  // namespace
}  // namespace blaeu::tree
