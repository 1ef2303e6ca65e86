// Robustness / failure-injection tests: the library must fail cleanly (via
// Status), never crash, on malformed CSV, hostile tables and degenerate
// clustering inputs.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "core/map_builder.h"
#include "core/navigation.h"
#include "core/theme.h"
#include "monet/csv.h"

namespace blaeu {
namespace {

using monet::DataType;
using monet::ReadCsv;
using monet::Schema;
using monet::TableBuilder;
using monet::Value;

TEST(CsvRobustnessTest, RandomJunkNeverCrashes) {
  Rng rng(123);
  const char alphabet[] = "abc123,\"\n\r .-";
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk;
    size_t len = rng.NextBounded(200);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(alphabet[rng.NextBounded(sizeof(alphabet) - 1)]);
    }
    auto result = ReadCsv(junk);  // must return, never crash
    if (result.ok()) {
      EXPECT_GT((*result)->num_columns(), 0u);
    }
  }
}

TEST(CsvRobustnessTest, PathologicalButValidInputs) {
  // Single cell.
  {
    auto t = *ReadCsv("x\n1\n");
    EXPECT_EQ(t->num_rows(), 1u);
  }
  // Header only: zero data rows.
  {
    auto t = *ReadCsv("a,b,c\n");
    EXPECT_EQ(t->num_rows(), 0u);
    EXPECT_EQ(t->num_columns(), 3u);
  }
  // Very wide row.
  {
    std::string header, row;
    for (int i = 0; i < 500; ++i) {
      if (i) {
        header += ',';
        row += ',';
      }
      header += "c" + std::to_string(i);
      row += std::to_string(i);
    }
    auto t = *ReadCsv(header + "\n" + row + "\n");
    EXPECT_EQ(t->num_columns(), 500u);
  }
  // Quoted field containing the delimiter and escaped quotes at EOF.
  {
    auto t = *ReadCsv("a\n\"x,\"\"y\"\"\"");
    EXPECT_EQ(t->GetValue(0, 0).AsString(), "x,\"y\"");
  }
}

monet::TablePtr OneColumnTable(std::vector<double> values) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  for (double v : values) {
    EXPECT_TRUE(b.AppendRow({Value::Double(v)}).ok());
  }
  return *b.Finish();
}

TEST(MapRobustnessTest, ConstantColumnYieldsTrivialMap) {
  auto t = OneColumnTable(std::vector<double>(50, 7.0));
  auto map = *core::BuildMap(*t);
  EXPECT_EQ(map.regions.size(), 1u);
  EXPECT_EQ(map.algorithm, "trivial");
}

TEST(MapRobustnessTest, TwoDistinctValuesStillMaps) {
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) values.push_back(i % 2 == 0 ? 0.0 : 10.0);
  auto t = OneColumnTable(values);
  auto map = core::BuildMap(*t);
  ASSERT_TRUE(map.ok());
  EXPECT_GE(map->num_clusters, 1u);
}

TEST(MapRobustnessTest, HeavilyNullTableDegradesGracefully) {
  TableBuilder b(Schema({{"x", DataType::kDouble},
                         {"y", DataType::kDouble}}));
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    // 80% nulls.
    Value x = rng.NextBernoulli(0.8) ? Value::Null()
                                     : Value::Double(rng.NextGaussian());
    Value y = rng.NextBernoulli(0.8) ? Value::Null()
                                     : Value::Double(rng.NextGaussian());
    ASSERT_TRUE(b.AppendRow({x, y}).ok());
  }
  auto t = *b.Finish();
  auto map = core::BuildMap(*t);
  ASSERT_TRUE(map.ok());  // must not crash or error
}

// 3,000 rows of three Gaussian columns with `special` in row 1234. The
// column stores that cell as NULL, so the z-scores stay finite and every
// seed maps. A stored NaN or +Inf made every distance NaN, CLARA kept no
// sub-sample, and CART rejected its empty labels.
void ExpectEverySeedMaps(double special) {
  TableBuilder b(Schema({{"a", DataType::kDouble},
                         {"b", DataType::kDouble},
                         {"c", DataType::kDouble}}));
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    const double a = rng.NextGaussian();
    ASSERT_TRUE(b.AppendRow({Value::Double(i == 1234 ? special : a),
                             Value::Double(rng.NextGaussian()),
                             Value::Double(rng.NextGaussian())})
                    .ok());
  }
  auto t = *b.Finish();
  EXPECT_EQ(t->column(0)->null_count(), 1u);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::MapOptions opt;
    opt.seed = seed;
    auto map = core::BuildMap(*t, opt);
    ASSERT_TRUE(map.ok()) << map.status().ToString();
    EXPECT_EQ(map->algorithm, "clara");
    EXPECT_EQ(map->total_tuples, 3000u);
  }
}

TEST(MapRobustnessTest, OneNaNCellStillMaps) {
  ExpectEverySeedMaps(std::numeric_limits<double>::quiet_NaN());
}

TEST(MapRobustnessTest, OneInfCellStillMaps) {
  ExpectEverySeedMaps(std::numeric_limits<double>::infinity());
}

TEST(ThemeRobustnessTest, AllKeyColumnsRejectedCleanly) {
  TableBuilder b(Schema({{"user_id", DataType::kInt64}}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Int(i)}).ok());
  }
  auto t = *b.Finish();
  auto themes = core::DetectThemes(*t);
  // The only column is a primary key: either cleanly rejected or a
  // degenerate one-theme answer; never a crash.
  if (themes.ok()) {
    EXPECT_LE(themes->size(), 1u);
  } else {
    EXPECT_EQ(themes.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SessionRobustnessTest, SingleRowTable) {
  TableBuilder b(Schema({{"x", DataType::kDouble},
                         {"y", DataType::kDouble}}));
  ASSERT_TRUE(b.AppendRow({Value::Double(1), Value::Double(2)}).ok());
  auto t = *b.Finish();
  // One row: themes degenerate, map trivial — but no crash either way.
  auto session = core::Session::Start(t, "tiny", {});
  if (session.ok()) {
    EXPECT_EQ(session->current().selection.size(), 1u);
  }
}

TEST(SessionRobustnessTest, RepeatedZoomToExhaustion) {
  // Zoom greedily into the smallest region until nothing subdivides; the
  // session must stay consistent throughout.
  TableBuilder b(Schema({{"x", DataType::kDouble},
                         {"y", DataType::kDouble}}));
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Double(rng.NextGaussian()),
                             Value::Double(rng.NextGaussian())})
                    .ok());
  }
  auto t = *b.Finish();
  core::SessionOptions opt;
  opt.map.sample_size = 400;
  auto session = *core::Session::Start(t, "noise", opt);
  for (int depth = 0; depth < 10; ++depth) {
    std::vector<int> leaves = session.current().map.LeafIds();
    int target = -1;
    for (int leaf : leaves) {
      if (session.current().map.region(leaf).tuple_count >= 8) {
        target = leaf;
        break;
      }
    }
    if (target < 0 || session.current().map.regions.size() <= 1) break;
    Status st = session.Zoom(target);
    if (!st.ok()) break;  // acceptable: region too small to re-map
    EXPECT_GT(session.current().selection.size(), 0u);
  }
  // Unwind completely.
  while (session.history_size() > 1) {
    ASSERT_TRUE(session.Rollback().ok());
  }
  EXPECT_EQ(session.current().selection.size(), 400u);
}

}  // namespace
}  // namespace blaeu
