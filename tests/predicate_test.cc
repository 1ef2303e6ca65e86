// Unit tests for conditions, conjunctions and their SQL rendering, and a
// differential test of the column-at-a-time kernels against a per-row
// oracle.
#include "monet/predicate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

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

// True if `c` keeps `row` of `t`, asked through EvaluateOn.
bool Keeps(const Table& t, const Condition& c, uint32_t row) {
  return !Conjunction({c}).EvaluateOn(t, SelectionVector({row}))->empty();
}

TEST(ConditionTest, NumericComparisons) {
  auto t = TestTable();
  Condition le = Condition::Threshold("x", 2.0);
  EXPECT_TRUE(Keeps(*t, le, 0));
  EXPECT_TRUE(Keeps(*t, le, 1));
  EXPECT_FALSE(Keeps(*t, le, 2));
  Condition gt = Condition::Threshold("x", 2.0, /*negated=*/true);
  EXPECT_TRUE(Keeps(*t, gt, 2));
  EXPECT_FALSE(Keeps(*t, gt, 1));
  EXPECT_TRUE(Keeps(*t, Condition::Threshold("n", 10), 0));  // int64 column
}

TEST(ConditionTest, NullsFailComparisons) {
  auto t = TestTable();
  EXPECT_FALSE(Keeps(*t, Condition::Threshold("x", 100), 3));  // NULL row
  EXPECT_FALSE(Keeps(*t, Condition::Threshold("x", -100, true), 3));
}

// Maps compare numeric columns and test sets of strings or bools; any other
// shape keeps no row, even one its SQL would keep.
TEST(ConditionTest, ShapesNoMapBuildsKeepNoRow) {
  auto t = TestTable();
  EXPECT_FALSE(Keeps(*t, Condition::Threshold("genre", 1.0), 0));
  EXPECT_FALSE(Keeps(*t, Condition::Threshold("genre", 1.0, true), 0));
  EXPECT_FALSE(Keeps(*t, Condition::InSet("n", {"10"}), 0));
  EXPECT_FALSE(Keeps(*t, Condition::InSet("x", {"1"}), 0));
}

TEST(ConditionTest, InSetAndNegation) {
  auto t = TestTable();
  Condition in = Condition::InSet("genre", {"Drama", "Action"});
  EXPECT_TRUE(Keeps(*t, in, 0));
  EXPECT_FALSE(Keeps(*t, in, 1));
  EXPECT_FALSE(Keeps(*t, in, 3));  // NULL fails IN
  Condition not_in = Condition::InSet("genre", {"Drama"}, /*negated=*/true);
  EXPECT_FALSE(Keeps(*t, not_in, 0));
  EXPECT_TRUE(Keeps(*t, not_in, 1));
  EXPECT_FALSE(Keeps(*t, not_in, 3));  // NULL fails NOT IN too
}

TEST(ConditionTest, SqlRendering) {
  EXPECT_EQ(Condition::Threshold("x", 22).ToSql(), "\"x\" <= 22");
  EXPECT_EQ(Condition::Threshold("x", 0.1 + 0.2, true).ToSql(),
            "\"x\" > 0.3");
  EXPECT_EQ(Condition::InSet("g", {"a", "b"}).ToSql(),
            "\"g\" IN ('a', 'b')");
  EXPECT_EQ(Condition::InSet("g", {"a"}, true).ToSql(),
            "\"g\" NOT IN ('a')");
  // SQL escapes a quote inside its quotes by doubling it: '"' in an
  // identifier, '\'' in a string literal.
  EXPECT_EQ(Condition::Threshold("rate \"pct\"", 1.5).ToSql(),
            R"("rate ""pct""" <= 1.5)");
  EXPECT_EQ(Condition::Threshold("it's", 1.5).ToSql(), R"("it's" <= 1.5)");
  EXPECT_EQ(Condition::InSet("genre", {"Children's", "Drama"}, true).ToSql(),
            R"("genre" NOT IN ('Children''s', 'Drama'))");
}

TEST(ConjunctionTest, EvaluateAll) {
  auto t = TestTable();
  Conjunction conj;
  conj.Add(Condition::Threshold("x", 1.5, /*negated=*/true));
  conj.Add(Condition::InSet("genre", {"Drama"}));
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
  conj.Add(Condition::Threshold("n", 10, /*negated=*/true));
  SelectionVector base({0, 1, 2});
  auto sel = *conj.EvaluateOn(*t, base);
  EXPECT_EQ(sel.rows(), (std::vector<uint32_t>{1, 2}));
}

TEST(ConjunctionTest, UnknownColumnIsKeyError) {
  auto t = TestTable();
  Conjunction conj;
  conj.Add(Condition::Threshold("zz", 1));
  EXPECT_EQ(conj.Evaluate(*t).status().code(), StatusCode::kKeyError);
}

TEST(ConjunctionTest, AndConcatenates) {
  Conjunction a, b;
  a.Add(Condition::Threshold("x", 1));
  b.Add(Condition::InSet("g", {"a"}));
  Conjunction c = a.And(b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ToSql(), "\"x\" <= 1 AND \"g\" IN ('a')");
}

// ---------------------------------------------------------------------------
// The kernels against the per-row oracle.

// The per-row matcher the kernels replaced: true if `row` of `col`
// satisfies `c`. A set member matches the cells it spells as ToString does.
// A threshold applies to double and int64 columns and a set to string and
// bool columns; any other shape matches no row.
bool OracleMatches(const Condition& c, const Column& col, uint32_t row) {
  if (col.IsNull(row)) return false;
  const bool numeric_col =
      col.type() == DataType::kDouble || col.type() == DataType::kInt64;
  if (c.kind == Condition::Kind::kThreshold) {
    if (!numeric_col) return false;
    const double v = col.GetNumeric(row);
    return c.negated ? v > c.threshold : v <= c.threshold;
  }
  if (numeric_col) return false;
  const std::string cell = col.GetValue(row).ToString();
  const bool found =
      std::find(c.set.begin(), c.set.end(), cell) != c.set.end();
  return found != c.negated;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t k2To53 = int64_t{1} << 53;

// `rows` rows over a double, an int64, a bool and a string column, each
// about 10% NULL, drawing from small pools so that values repeat. The
// double pool's NaN and ±Inf cells are stored as NULL, as every
// non-finite double is (Column::AppendDouble).
TablePtr RandomTable(size_t rows, uint64_t seed) {
  const std::vector<double> doubles = {
      -kInf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 1e300, kInf, std::nan("")};
  const std::vector<int64_t> ints = {
      std::numeric_limits<int64_t>::min(), -k2To53 - 1, -7, 0, 1, 7,
      k2To53, k2To53 + 1, std::numeric_limits<int64_t>::max()};
  const std::vector<std::string> strings = {"Drama", "Comedy", "Action",
                                            "07",    "7",      "",
                                            "true"};
  Rng rng(seed);
  TableBuilder b(Schema({{"d", DataType::kDouble},
                         {"i", DataType::kInt64},
                         {"b", DataType::kBool},
                         {"s", DataType::kString}}));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row = {
        Value::Double(rng.NextBernoulli(0.5)
                          ? doubles[rng.NextBounded(doubles.size())]
                          : rng.NextGaussian()),
        Value::Int(rng.NextBernoulli(0.5) ? ints[rng.NextBounded(ints.size())]
                                          : rng.NextInt(-10, 10)),
        Value::Boolean(rng.NextBernoulli(0.5)),
        Value::Str(strings[rng.NextBounded(strings.size())])};
    for (Value& v : row) {
      if (rng.NextBernoulli(0.1)) v = Value::Null();
    }
    EXPECT_TRUE(b.AppendRow(row).ok());
  }
  return *b.Finish();
}

// Every condition on every column: <= and > against thresholds that
// include -0, NaN, +-Inf and integers the double rounds; IN and NOT IN with
// empty, absent, duplicate and non-canonical members. "absent" is in no
// dictionary.
std::vector<Condition> ConditionPool() {
  const std::vector<double> thresholds = {
      0.5,
      -0.0,
      -2.5,
      std::nan(""),
      kInf,
      -kInf,
      9007199254740993.0,  // 2^53 + 1, rounds to 2^53
      7,
      0,
      static_cast<double>(std::numeric_limits<int64_t>::min()),
      static_cast<double>(std::numeric_limits<int64_t>::max())};
  const std::vector<std::vector<std::string>> sets = {
      {},
      {"absent"},
      {"Drama", "Drama"},
      {"Drama", "Comedy", "absent"},
      {"07"},
      {"7", "7"},
      {""},
      {"true"},
      {"false", "true", "false"},
      {"1", "-7", "0"},
      {"0.5", "-0", "nan", "inf", "-inf", "1e+300"},
      {"9223372036854775807", "-9223372036854775808", "9007199254740993"}};
  std::vector<Condition> pool;
  for (const char* column : {"d", "i", "b", "s"}) {
    for (double t : thresholds) {
      pool.push_back(Condition::Threshold(column, t, /*negated=*/false));
      pool.push_back(Condition::Threshold(column, t, /*negated=*/true));
    }
    for (const auto& set : sets) {
      pool.push_back(Condition::InSet(column, set, /*negated=*/false));
      pool.push_back(Condition::InSet(column, set, /*negated=*/true));
    }
  }
  return pool;
}

// All rows, none, one, every third and a seeded random subset.
std::vector<SelectionVector> Bases(size_t rows, uint64_t seed) {
  std::vector<SelectionVector> bases;
  bases.push_back(SelectionVector::All(rows));
  bases.emplace_back();
  bases.push_back(SelectionVector({static_cast<uint32_t>(rows / 2)}));
  SelectionVector third, random;
  Rng rng(seed);
  for (uint32_t r = 0; r < rows; ++r) {
    if (r % 3 == 0) third.push_back(r);
    if (rng.NextBernoulli(0.5)) random.push_back(r);
  }
  bases.push_back(std::move(third));
  bases.push_back(std::move(random));
  return bases;
}

// EvaluateOn keeps exactly the rows of `base` the oracle passes, in order,
// in an exactly sized vector.
void ExpectMatchesOracle(const Table& t, const Conjunction& conj,
                         const SelectionVector& base) {
  std::vector<const Column*> columns;
  for (const Condition& c : conj.conditions()) {
    columns.push_back(t.ColumnByName(c.column)->get());
  }
  std::vector<uint32_t> expected;
  for (uint32_t row : base.rows()) {
    bool all = true;
    for (size_t i = 0; i < columns.size() && all; ++i) {
      all = OracleMatches(conj.conditions()[i], *columns[i], row);
    }
    if (all) expected.push_back(row);
  }
  const SelectionVector got = *conj.EvaluateOn(t, base);
  ASSERT_EQ(got.rows(), expected)
      << conj.ToSql() << " over " << base.size() << " of " << t.num_rows()
      << " rows";
  ASSERT_EQ(got.rows().capacity(), got.rows().size()) << conj.ToSql();
}

TEST(PredicateKernelTest, EveryConditionMatchesTheOracle) {
  const std::vector<Condition> pool = ConditionPool();
  for (size_t rows : {1, 2, 7, 300, 3000}) {
    const TablePtr t = RandomTable(rows, 100 + rows);
    for (const SelectionVector& base : Bases(rows, rows)) {
      for (const Condition& c : pool) {
        ExpectMatchesOracle(*t, Conjunction({c}), base);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(PredicateKernelTest, ConjunctionsMatchTheOracle) {
  const std::vector<Condition> pool = ConditionPool();
  Rng rng(7);
  for (size_t rows : {1, 5, 64, 3000}) {
    const TablePtr t = RandomTable(rows, 200 + rows);
    const std::vector<SelectionVector> bases = Bases(rows, rows + 1);
    for (int trial = 0; trial < 200; ++trial) {
      Conjunction conj;
      const size_t size = rng.NextBounded(5);  // 0-4 conditions
      for (size_t i = 0; i < size; ++i) {
        conj.Add(pool[rng.NextBounded(pool.size())]);
      }
      for (const SelectionVector& base : bases) {
        ExpectMatchesOracle(*t, conj, base);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace blaeu::monet
