// Unit tests for conditions, conjunctions and their SQL rendering.
#include "monet/predicate.h"

#include <gtest/gtest.h>

namespace blaeu::monet {
namespace {

TablePtr TestTable() {
  TableBuilder b(Schema({{"x", DataType::kDouble},
                         {"genre", DataType::kString},
                         {"n", DataType::kInt64}}));
  auto add = [&](double x, const char* g, int64_t n) {
    EXPECT_TRUE(b.AppendRow({Value::Double(x), Value::Str(g), Value::Int(n)})
                    .ok());
  };
  add(1.0, "Drama", 10);
  add(2.0, "Comedy", 20);
  add(3.0, "Drama", 30);
  EXPECT_TRUE(b.AppendRow({Value::Null(), Value::Null(), Value::Int(40)}).ok());
  add(5.0, "Action", 50);
  return *b.Finish();
}

TEST(ConditionTest, NumericComparisons) {
  auto t = TestTable();
  const Column& x = *t->column(0);
  Condition lt = Condition::Compare("x", CompareOp::kLt, Value::Double(2.5));
  EXPECT_TRUE(lt.Matches(x, 0));
  EXPECT_TRUE(lt.Matches(x, 1));
  EXPECT_FALSE(lt.Matches(x, 2));
  Condition ge = Condition::Compare("x", CompareOp::kGe, Value::Double(3.0));
  EXPECT_TRUE(ge.Matches(x, 2));
  EXPECT_FALSE(ge.Matches(x, 1));
}

TEST(ConditionTest, NullsFailComparisons) {
  auto t = TestTable();
  Condition c = Condition::Compare("x", CompareOp::kLt, Value::Double(100));
  EXPECT_FALSE(c.Matches(*t->column(0), 3));  // NULL row
}

TEST(ConditionTest, NullTests) {
  auto t = TestTable();
  EXPECT_TRUE(Condition::IsNull("x").Matches(*t->column(0), 3));
  EXPECT_FALSE(Condition::IsNull("x").Matches(*t->column(0), 0));
  EXPECT_TRUE(Condition::NotNull("x").Matches(*t->column(0), 0));
}

TEST(ConditionTest, StringEqualityAndOrdering) {
  auto t = TestTable();
  const Column& g = *t->column(1);
  Condition eq = Condition::Compare("genre", CompareOp::kEq,
                                    Value::Str("Drama"));
  EXPECT_TRUE(eq.Matches(g, 0));
  EXPECT_FALSE(eq.Matches(g, 1));
  // Cross-type comparison fails closed.
  Condition cross = Condition::Compare("genre", CompareOp::kEq,
                                       Value::Double(1.0));
  EXPECT_FALSE(cross.Matches(g, 0));
}

TEST(ConditionTest, InSetAndNegation) {
  auto t = TestTable();
  const Column& g = *t->column(1);
  Condition in = Condition::InSet("genre", {"Drama", "Action"});
  EXPECT_TRUE(in.Matches(g, 0));
  EXPECT_FALSE(in.Matches(g, 1));
  EXPECT_FALSE(in.Matches(g, 3));  // NULL fails IN
  Condition not_in = Condition::InSet("genre", {"Drama"}, /*negated=*/true);
  EXPECT_FALSE(not_in.Matches(g, 0));
  EXPECT_TRUE(not_in.Matches(g, 1));
  EXPECT_FALSE(not_in.Matches(g, 3));  // NULL fails NOT IN too
}

TEST(ConditionTest, SqlRendering) {
  EXPECT_EQ(
      Condition::Compare("x", CompareOp::kGe, Value::Double(22)).ToSql(),
      "\"x\" >= 22");
  EXPECT_EQ(Condition::Compare("g", CompareOp::kEq, Value::Str("a")).ToSql(),
            "\"g\" = 'a'");
  EXPECT_EQ(Condition::InSet("g", {"a", "b"}).ToSql(),
            "\"g\" IN ('a', 'b')");
  EXPECT_EQ(Condition::InSet("g", {"a"}, true).ToSql(),
            "\"g\" NOT IN ('a')");
  EXPECT_EQ(Condition::IsNull("g").ToSql(), "\"g\" IS NULL");
}

TEST(ConjunctionTest, EvaluateAll) {
  auto t = TestTable();
  Conjunction conj;
  conj.Add(Condition::Compare("x", CompareOp::kGt, Value::Double(1.5)));
  conj.Add(Condition::Compare("genre", CompareOp::kEq, Value::Str("Drama")));
  auto sel = *conj.Evaluate(*t);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 2u);
}

TEST(ConjunctionTest, EmptyConjunctionKeepsEverything) {
  auto t = TestTable();
  Conjunction conj;
  auto sel = *conj.Evaluate(*t);
  EXPECT_EQ(sel.size(), t->num_rows());
  EXPECT_EQ(conj.ToSql(), "TRUE");
}

TEST(ConjunctionTest, EvaluateOnRestrictsToBase) {
  auto t = TestTable();
  Conjunction conj;
  conj.Add(Condition::Compare("n", CompareOp::kGe, Value::Int(20)));
  SelectionVector base({0, 1, 2});
  auto sel = *conj.EvaluateOn(*t, base);
  EXPECT_EQ(sel.rows(), (std::vector<uint32_t>{1, 2}));
}

TEST(ConjunctionTest, UnknownColumnIsKeyError) {
  auto t = TestTable();
  Conjunction conj;
  conj.Add(Condition::Compare("zz", CompareOp::kLt, Value::Double(1)));
  EXPECT_EQ(conj.Evaluate(*t).status().code(), StatusCode::kKeyError);
}

TEST(ConjunctionTest, AndConcatenates) {
  Conjunction a, b;
  a.Add(Condition::Compare("x", CompareOp::kLt, Value::Double(1)));
  b.Add(Condition::IsNull("g"));
  Conjunction c = a.And(b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ToSql(), "\"x\" < 1 AND \"g\" IS NULL");
}

TEST(CompareOpTest, Symbols) {
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kLe), "<=");
  EXPECT_STREQ(CompareOpSymbol(CompareOp::kNe), "<>");
}

}  // namespace
}  // namespace blaeu::monet
