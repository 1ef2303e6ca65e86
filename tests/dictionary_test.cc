// Dictionary-encoded string columns: interning, gather, null handling, CSV
// load equivalence, and the dummy features preprocessing fills from
// dictionary codes.
#include "monet/dictionary.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/preprocess.h"
#include "monet/csv.h"
#include "monet/predicate.h"
#include "monet/table.h"
#include "workloads/hollywood.h"

namespace blaeu::monet {
namespace {

TEST(DictionaryTest, InternRoundTripAndHits) {
  Dictionary dict;
  EXPECT_TRUE(dict.empty());
  int32_t a = dict.Intern("alpha");
  int32_t b = dict.Intern("beta");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(dict.Intern("alpha"), a);  // same code, no new entry
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.value(a), "alpha");
  EXPECT_EQ(dict.value(b), "beta");
  EXPECT_EQ(dict.intern_hits(), 1u);
  EXPECT_EQ(dict.Find("beta"), b);
  EXPECT_EQ(dict.Find("gamma"), Dictionary::kNullCode);
  EXPECT_GT(dict.bytes(), 0u);
}

TEST(DictionaryTest, ManyEntriesKeepStableViews) {
  // The index keys are views into the pool; growth must not invalidate
  // them (deque storage). 10k entries force many internal reallocations.
  Dictionary dict;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(dict.Intern("value_" + std::to_string(i)), i);
  }
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(dict.Find("value_" + std::to_string(i)), i);
    ASSERT_EQ(dict.value(i), "value_" + std::to_string(i));
  }
}

TEST(DictionaryColumnTest, AppendInternsAndNullsGetNullCode) {
  Column col(DataType::kString);
  col.AppendString("x");
  col.AppendString("y");
  col.AppendNull();
  col.AppendString("x");
  ASSERT_EQ(col.size(), 4u);
  EXPECT_EQ(col.codes()[0], col.codes()[3]);  // repeated value, one code
  EXPECT_NE(col.codes()[0], col.codes()[1]);
  EXPECT_EQ(col.codes()[2], Dictionary::kNullCode);
  EXPECT_EQ(col.dictionary()->size(), 2u);
  EXPECT_EQ(col.StringAt(0), "x");
  EXPECT_EQ(col.StringAt(2), "");  // null renders empty by reference
  EXPECT_TRUE(col.GetValue(2).is_null());
  EXPECT_EQ(col.GetValue(1).AsString(), "y");
}

TEST(DictionaryColumnTest, TakeSharesDictionaryAndCopiesCodes) {
  Column col(DataType::kString);
  col.AppendString("a");
  col.AppendString("b");
  col.AppendNull();
  col.AppendString("c");
  Column taken = col.Take({3, 1, 1, 2});
  // Same dictionary object: codes stay comparable across the gather.
  EXPECT_EQ(taken.dictionary().get(), col.dictionary().get());
  ASSERT_EQ(taken.size(), 4u);
  EXPECT_EQ(taken.codes()[0], col.codes()[3]);
  EXPECT_EQ(taken.codes()[1], col.codes()[1]);
  EXPECT_EQ(taken.codes()[2], col.codes()[1]);
  EXPECT_EQ(taken.codes()[3], Dictionary::kNullCode);
  EXPECT_EQ(taken.StringAt(0), "c");
  EXPECT_EQ(taken.StringAt(1), "b");
  EXPECT_TRUE(taken.IsNull(3));
}

TEST(DictionaryColumnTest, CsvLoadInternsStrings) {
  auto table = ReadCsv(
      "city,pop\n"
      "lyon,500\n"
      "paris,2100\n"
      "lyon,500\n"
      ",0\n"
      "paris,2100\n");
  ASSERT_TRUE(table.ok());
  const Column& city = *(*table)->column(0);
  ASSERT_EQ(city.type(), DataType::kString);
  EXPECT_EQ(city.dictionary()->size(), 2u);  // lyon, paris
  EXPECT_EQ(city.codes()[0], city.codes()[2]);
  EXPECT_EQ(city.codes()[1], city.codes()[4]);
  EXPECT_EQ(city.codes()[3], Dictionary::kNullCode);
  EXPECT_EQ(city.StringAt(4), "paris");
}

TEST(DictionaryColumnTest, PredicateOnAbsentLiteral) {
  // A set member that was never interned matches no cell: IN skips it, and
  // NOT IN keeps every non-null cell.
  TableBuilder b(Schema({{"s", DataType::kString}}));
  ASSERT_TRUE(b.AppendRow({Value::Str("a")}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Str("b")}).ok());
  TablePtr t = *b.Finish();
  auto not_in = Conjunction({Condition::InSet("s", {"missing"}, true)})
                    .Evaluate(*t);
  ASSERT_TRUE(not_in.ok());
  EXPECT_EQ(not_in->rows(), (std::vector<uint32_t>{0, 2}));
  auto in = Conjunction({Condition::InSet("s", {"missing", "b"})}).Evaluate(*t);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->rows(), (std::vector<uint32_t>{2}));
}

// -- Dummy coding from dictionary codes -----------------------------------

TEST(DictionaryPreprocessTest, DummyIsOneExactlyWhenTheCellRendersAsIt) {
  // Preprocessing fills string dummies from dictionary codes and other
  // categorical dummies from rendered cells; both must match the
  // definition: a dummy feature is 1.0 exactly when the cell renders as the
  // feature's category.
  auto data = workloads::MakeHollywood({});  // categorical-heavy workload
  const Table& table = *data.table;
  auto pre = core::Preprocess(table, SelectionVector::All(table.num_rows()));
  ASSERT_TRUE(pre.ok());
  std::vector<DataType> dummy_types;
  for (size_t f = 0; f < pre->feature_info.size(); ++f) {
    const core::FeatureInfo& info = pre->feature_info[f];
    if (!info.is_categorical) continue;
    const Column& col = *table.column(info.source_column);
    dummy_types.push_back(col.type());
    for (size_t i = 0; i < pre->rows.size(); ++i) {
      const uint32_t r = pre->rows[i];
      const bool is_category =
          !col.IsNull(r) && col.GetValue(r).ToString() == info.category;
      ASSERT_EQ(pre->features.At(i, f), is_category ? 1.0 : 0.0)
          << info.source_name << "=" << info.category << ", row " << r;
    }
  }
  // Hollywood dummy codes string columns (genre, studio) and an int one
  // (year), so both fill paths ran.
  EXPECT_NE(std::count(dummy_types.begin(), dummy_types.end(),
                       DataType::kString),
            0);
  EXPECT_NE(std::count(dummy_types.begin(), dummy_types.end(),
                       DataType::kInt64),
            0);
}

}  // namespace
}  // namespace blaeu::monet
