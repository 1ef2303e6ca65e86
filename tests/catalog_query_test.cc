// Unit tests for the catalog and Select-Project query execution.
#include "monet/catalog.h"
#include "monet/query.h"

#include <gtest/gtest.h>

namespace blaeu::monet {
namespace {

TablePtr SmallTable() {
  TableBuilder b(Schema({{"x", DataType::kInt64},
                         {"name", DataType::kString}}));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(
        b.AppendRow({Value::Int(i), Value::Str("n" + std::to_string(i))})
            .ok());
  }
  return *b.Finish();
}

TEST(CatalogTest, RegisterOrReplaceOverwrites) {
  Catalog cat;
  cat.RegisterOrReplace("t", SmallTable());
  cat.RegisterOrReplace("t", SmallTable()->Take({0}));
  EXPECT_EQ((*cat.Get("t"))->num_rows(), 1u);
}

TEST(CatalogTest, ListIsSorted) {
  Catalog cat;
  cat.RegisterOrReplace("zeta", SmallTable());
  cat.RegisterOrReplace("alpha", SmallTable());
  EXPECT_EQ(cat.List(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(QueryTest, SqlRendering) {
  SelectProjectQuery q;
  q.table_name = "movies";
  q.columns = {"budget", "gross"};
  q.where.Add(Condition::Threshold("budget", 100, /*negated=*/true));
  EXPECT_EQ(q.ToSql(),
            "SELECT \"budget\", \"gross\" FROM \"movies\" WHERE "
            "\"budget\" > 100;");
  SelectProjectQuery star;
  star.table_name = "t";
  EXPECT_EQ(star.ToSql(), "SELECT * FROM \"t\";");
  // A '"' inside a name is doubled, as is a '\'' inside a value.
  SelectProjectQuery quoted;
  quoted.table_name = "my \"table\"";
  quoted.columns = {"genre", "rate \"pct\""};
  quoted.where.Add(Condition::InSet("genre", {"Children's"}));
  EXPECT_EQ(quoted.ToSql(),
            R"(SELECT "genre", "rate ""pct""" FROM "my ""table""")"
            R"( WHERE "genre" IN ('Children''s');)");
}

TEST(QueryTest, ExecutesAgainstCatalog) {
  Catalog cat;
  cat.RegisterOrReplace("t", SmallTable());
  SelectProjectQuery q;
  q.table_name = "t";
  q.columns = {"name"};
  q.where.Add(Condition::Threshold("x", 2, /*negated=*/true));
  auto result = q.Execute(cat);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 2u);
  EXPECT_EQ((*result)->num_columns(), 1u);
  EXPECT_EQ((*result)->GetValue(0, 0).AsString(), "n3");
}

TEST(QueryTest, MissingTableFails) {
  Catalog cat;
  SelectProjectQuery q;
  q.table_name = "ghost";
  EXPECT_EQ(q.Execute(cat).status().code(), StatusCode::kKeyError);
}

TEST(QueryTest, MissingColumnFails) {
  Catalog cat;
  cat.RegisterOrReplace("t", SmallTable());
  SelectProjectQuery q;
  q.table_name = "t";
  q.columns = {"nope"};
  EXPECT_EQ(q.Execute(cat).status().code(), StatusCode::kKeyError);
}

}  // namespace
}  // namespace blaeu::monet
