// Unit tests for the session report exporter.
#include "core/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "monet/csv.h"
#include "workloads/gaussian.h"

namespace blaeu::core {
namespace {

namespace fs = std::filesystem;

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("blaeu_report_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string ReadAll(const fs::path& p) {
    std::ifstream in(p);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  fs::path dir_;
};

Session MakeSession() {
  workloads::MixtureSpec spec;
  spec.rows = 400;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  auto data = workloads::MakeGaussianMixture(spec);
  SessionOptions opt;
  opt.map.sample_size = 400;
  auto session = Session::Start(data.table, "mixture", opt);
  EXPECT_TRUE(session.ok());
  return std::move(session).ValueOrDie();
}

TEST_F(ReportTest, WritesAllArtifacts) {
  Session s = MakeSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Annotate(leaves[0], "exported note").ok());
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  ASSERT_TRUE(ExportSessionReport(s, dir_.string()).ok());

  EXPECT_TRUE(fs::exists(dir_ / "themes.txt"));
  EXPECT_TRUE(fs::exists(dir_ / "themes.json"));
  EXPECT_TRUE(fs::exists(dir_ / "dependency.dot"));
  EXPECT_TRUE(fs::exists(dir_ / "session.json"));
  // One map/query set per state (2 states: start + zoom).
  for (int i = 0; i < 2; ++i) {
    std::string stem = "state_" + std::to_string(i);
    EXPECT_TRUE(fs::exists(dir_ / (stem + "_map.txt")));
    EXPECT_TRUE(fs::exists(dir_ / (stem + "_map.json")));
    EXPECT_TRUE(fs::exists(dir_ / (stem + "_query.sql")));
  }
  // Every current leaf has a CSV.
  for (int leaf : s.current().map.LeafIds()) {
    EXPECT_TRUE(fs::exists(dir_ / ("region_" + std::to_string(leaf) +
                                   ".csv")));
  }
}

TEST_F(ReportTest, ExportedSqlIsTheCurrentQuery) {
  Session s = MakeSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  ASSERT_TRUE(ExportSessionReport(s, dir_.string()).ok());
  EXPECT_FALSE(s.CurrentQuery().where.empty());
  EXPECT_EQ(ReadAll(dir_ / "state_1_query.sql"),
            s.CurrentQuery().ToSql() + "\n");
}

TEST_F(ReportTest, RegionCsvsReload) {
  Session s = MakeSession();
  ASSERT_TRUE(ExportSessionReport(s, dir_.string()).ok());
  int checked = 0;
  for (int leaf : s.current().map.LeafIds()) {
    fs::path p = dir_ / ("region_" + std::to_string(leaf) + ".csv");
    auto table = monet::ReadCsvFile(p.string());
    ASSERT_TRUE(table.ok());
    EXPECT_LE((*table)->num_rows(), 100u);
    EXPECT_EQ((*table)->num_columns(), s.table().num_columns());
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(ReportTest, SessionJsonContainsAnnotations) {
  Session s = MakeSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Annotate(leaves[0], "marker-xyz").ok());
  ASSERT_TRUE(ExportSessionReport(s, dir_.string()).ok());
  std::string json = ReadAll(dir_ / "session.json");
  EXPECT_NE(json.find("marker-xyz"), std::string::npos);
}

TEST_F(ReportTest, MissingDirectoryIsIOError) {
  Session s = MakeSession();
  EXPECT_EQ(
      ExportSessionReport(s, "/nonexistent_dir_for_blaeu_test").code(),
      StatusCode::kIOError);
}

}  // namespace
}  // namespace blaeu::core
