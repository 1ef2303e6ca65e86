// Unit tests for typed nullable columns.
#include "monet/column.h"

#include <gtest/gtest.h>

#include <limits>

namespace blaeu::monet {
namespace {

TEST(ValueTest, FactoriesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  Value d = Value::Double(2.5);
  EXPECT_EQ(d.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 2.5);
  Value i = Value::Int(7);
  EXPECT_EQ(i.AsInt(), 7);
  EXPECT_DOUBLE_EQ(i.AsDouble(), 7.0);  // widening
  Value s = Value::Str("hi");
  EXPECT_EQ(s.AsString(), "hi");
  Value b = Value::Boolean(true);
  EXPECT_TRUE(b.AsBool());
  EXPECT_DOUBLE_EQ(b.AsDouble(), 1.0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(3).ToString(), "3");
  EXPECT_EQ(Value::Str("x").ToString(), "x");
  EXPECT_EQ(Value::Boolean(false).ToString(), "false");
  EXPECT_EQ(Value::Double(1.25).ToString(), "1.25");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_FALSE(Value::Int(3) == Value::Int(4));
  EXPECT_FALSE(Value::Int(3) == Value::Double(3.0));  // type-sensitive
  EXPECT_FALSE(Value::Null() == Value::Int(0));
}

TEST(ColumnTest, AppendAndGet) {
  Column col(DataType::kDouble);
  col.AppendDouble(1.0);
  col.AppendNull();
  col.AppendDouble(3.0);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_DOUBLE_EQ(col.GetValue(0).AsDouble(), 1.0);
  EXPECT_TRUE(col.GetValue(1).is_null());
}

TEST(ColumnTest, NonFiniteDoublesAreStoredAsNull) {
  // The ingest rule: NaN and ±Inf become NULL, through AppendDouble and
  // AppendValue alike, so every stored double is finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Column col(DataType::kDouble);
  col.AppendDouble(nan);
  col.AppendDouble(inf);
  ASSERT_TRUE(col.AppendValue(Value::Double(-inf)).ok());
  col.AppendDouble(-0.0);
  col.AppendDouble(std::numeric_limits<double>::max());
  EXPECT_EQ(col.size(), 5u);
  EXPECT_EQ(col.null_count(), 3u);
  for (size_t row = 0; row < 3; ++row) EXPECT_TRUE(col.IsNull(row));
  EXPECT_FALSE(col.IsNull(3));
  EXPECT_EQ(col.GetValue(4).AsDouble(), std::numeric_limits<double>::max());
}

TEST(ColumnTest, StringColumn) {
  Column col(DataType::kString);
  col.AppendString("a");
  col.AppendString("b");
  EXPECT_EQ(col.StringAt(1), "b");
  EXPECT_EQ(col.GetValue(0).AsString(), "a");
}

TEST(ColumnTest, AppendValueTypeChecks) {
  Column col(DataType::kInt64);
  EXPECT_TRUE(col.AppendValue(Value::Int(1)).ok());
  EXPECT_TRUE(col.AppendValue(Value::Double(2.9)).ok());  // narrowing allowed
  EXPECT_EQ(col.ints()[1], 2);
  EXPECT_TRUE(col.AppendValue(Value::Null()).ok());
  Status s = col.AppendValue(Value::Str("nope"));
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_EQ(col.size(), 3u);
}

TEST(ColumnTest, AppendValueStringColumnRejectsNumbers) {
  Column col(DataType::kString);
  EXPECT_EQ(col.AppendValue(Value::Int(1)).code(), StatusCode::kTypeError);
  EXPECT_TRUE(col.AppendValue(Value::Str("ok")).ok());
}

TEST(ColumnTest, GetNumericWidens) {
  Column ints(DataType::kInt64);
  ints.AppendInt(5);
  EXPECT_DOUBLE_EQ(ints.GetNumeric(0), 5.0);
  Column bools(DataType::kBool);
  bools.AppendBool(true);
  EXPECT_DOUBLE_EQ(bools.GetNumeric(0), 1.0);
}

TEST(ColumnTest, TakeGathersWithDuplicatesAndNulls) {
  Column col(DataType::kInt64);
  for (int i = 0; i < 5; ++i) col.AppendInt(i * 10);
  col.AppendNull();
  Column taken = col.Take({5, 0, 0, 3});
  ASSERT_EQ(taken.size(), 4u);
  EXPECT_TRUE(taken.IsNull(0));
  EXPECT_EQ(taken.ints()[1], 0);
  EXPECT_EQ(taken.ints()[2], 0);
  EXPECT_EQ(taken.ints()[3], 30);
  EXPECT_EQ(taken.null_count(), 1u);
}

TEST(ColumnTest, TakeEmpty) {
  Column col(DataType::kString);
  col.AppendString("x");
  Column taken = col.Take({});
  EXPECT_EQ(taken.size(), 0u);
}

TEST(DataTypeTest, Names) {
  EXPECT_STREQ(DataTypeName(DataType::kDouble), "double");
  EXPECT_STREQ(DataTypeName(DataType::kString), "string");
  EXPECT_TRUE(IsNumeric(DataType::kInt64));
  EXPECT_FALSE(IsNumeric(DataType::kString));
}

}  // namespace
}  // namespace blaeu::monet
