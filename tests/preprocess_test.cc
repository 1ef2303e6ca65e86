// Unit tests for the preprocessing stage (Figure 3, first box).
#include "core/preprocess.h"

#include <gtest/gtest.h>


namespace blaeu::core {
namespace {

using monet::DataType;
using monet::Schema;
using monet::SelectionVector;
using monet::TableBuilder;
using monet::TablePtr;
using monet::Value;

TablePtr MixedTable() {
  TableBuilder b(Schema({{"user_id", DataType::kInt64},
                         {"income", DataType::kDouble},
                         {"genre", DataType::kString},
                         {"hours", DataType::kDouble}}));
  const char* genres[] = {"a", "b", "a", "c", "b", "a"};
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(b.AppendRow({Value::Int(i), Value::Double(10.0 + i),
                             Value::Str(genres[i]),
                             Value::Double(40.0 - 2.0 * i)})
                    .ok());
  }
  return *b.Finish();
}

TEST(PreprocessTest, DropsKeyColumns) {
  auto t = MixedTable();
  auto pre = *Preprocess(*t, SelectionVector::All(6));
  EXPECT_EQ(pre.dropped_keys, (std::vector<size_t>{0}));
  for (const FeatureInfo& f : pre.feature_info) {
    EXPECT_NE(f.source_name, "user_id");
  }
}

TEST(PreprocessTest, DummyCodingLayout) {
  auto t = MixedTable();
  auto pre = *Preprocess(*t, SelectionVector::All(6));
  // income (1) + genre dummies (3) + hours (1) = 5 features.
  EXPECT_EQ(pre.features.cols(), 5u);
  EXPECT_EQ(pre.features.rows(), 6u);
  size_t dummies = 0;
  for (const FeatureInfo& f : pre.feature_info) {
    if (f.is_categorical) {
      ++dummies;
      EXPECT_EQ(f.source_name, "genre");
      EXPECT_FALSE(f.category.empty());
    }
  }
  EXPECT_EQ(dummies, 3u);
}

TEST(PreprocessTest, DummiesAreOneHot) {
  auto t = MixedTable();
  auto pre = *Preprocess(*t, SelectionVector::All(6));
  for (size_t r = 0; r < pre.features.rows(); ++r) {
    double sum = 0;
    for (size_t f = 0; f < pre.feature_info.size(); ++f) {
      if (pre.feature_info[f].is_categorical) sum += pre.features.At(r, f);
    }
    EXPECT_DOUBLE_EQ(sum, 1.0);  // exactly one dummy set per row
  }
}

TEST(PreprocessTest, ContinuousColumnsZScored) {
  auto t = MixedTable();
  auto pre = *Preprocess(*t, SelectionVector::All(6));
  // Find the income feature and check mean ~ 0, sd ~ 1.
  for (size_t f = 0; f < pre.feature_info.size(); ++f) {
    if (pre.feature_info[f].source_name != "income") continue;
    double sum = 0, sum_sq = 0;
    for (size_t r = 0; r < 6; ++r) {
      sum += pre.features.At(r, f);
      sum_sq += pre.features.At(r, f) * pre.features.At(r, f);
    }
    EXPECT_NEAR(sum / 6.0, 0.0, 1e-9);
    EXPECT_NEAR(sum_sq / 6.0, 1.0, 1e-9);
  }
}

TEST(PreprocessTest, MissingNumericImputedAtMean) {
  TableBuilder b(Schema({{"x", DataType::kDouble},
                         {"y", DataType::kDouble}}));
  ASSERT_TRUE(b.AppendRow({Value::Double(1), Value::Double(5)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Null(), Value::Double(7)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Double(3), Value::Double(9)}).ok());
  auto t = *b.Finish();
  auto pre = *Preprocess(*t, SelectionVector::All(3));
  // Row 1's x is the mean of the normalized non-nulls = 0.
  EXPECT_NEAR(pre.features.At(1, 0), 0.0, 1e-9);
}

TEST(PreprocessTest, ConstantAndAllNullColumnsSkipped) {
  TableBuilder b(Schema({{"constant", DataType::kDouble},
                         {"all_null", DataType::kDouble},
                         {"useful", DataType::kDouble}}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Double(7), Value::Null(),
                             Value::Double(i)})
                    .ok());
  }
  auto t = *b.Finish();
  auto pre = *Preprocess(*t, SelectionVector::All(4));
  EXPECT_EQ(pre.features.cols(), 1u);
  EXPECT_EQ(pre.feature_info[0].source_name, "useful");
}

TEST(PreprocessTest, CategoryCapSharesOtherBucket) {
  TableBuilder b(Schema({{"g", DataType::kString},
                         {"x", DataType::kDouble}}));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Str("cat" + std::to_string(i % 20)),
                             Value::Double(i)})
                    .ok());
  }
  auto t = *b.Finish();
  auto pre = *Preprocess(*t, SelectionVector::All(40));
  size_t dummies = 0;
  for (const auto& f : pre.feature_info) {
    if (f.is_categorical) ++dummies;
  }
  EXPECT_EQ(dummies, 12u);
}

TEST(PreprocessTest, SelectionRespected) {
  auto t = MixedTable();
  SelectionVector sel({0, 2, 4});
  auto pre = *Preprocess(*t, sel);
  EXPECT_EQ(pre.features.rows(), 3u);
  EXPECT_EQ(pre.rows, sel.rows());
}

TEST(PreprocessTest, EmptySelectionRejected) {
  auto t = MixedTable();
  EXPECT_FALSE(Preprocess(*t, SelectionVector()).ok());
}

TEST(PreprocessTest, SmallDomainNumericTreatedCategorical) {
  TableBuilder b(Schema({{"year", DataType::kInt64},
                         {"x", DataType::kDouble}}));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Int(2007 + (i % 3)),
                             Value::Double(i * 1.1)})
                    .ok());
  }
  auto t = *b.Finish();
  auto pre = *Preprocess(*t, SelectionVector::All(50));
  size_t year_dummies = 0;
  for (const auto& f : pre.feature_info) {
    if (f.source_name == "year") {
      EXPECT_TRUE(f.is_categorical);
      ++year_dummies;
    }
  }
  EXPECT_EQ(year_dummies, 3u);
}

}  // namespace
}  // namespace blaeu::core
