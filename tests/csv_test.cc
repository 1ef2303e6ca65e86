// Unit tests for CSV import/export and type inference.
#include "monet/csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

namespace blaeu::monet {
namespace {

/// A one-column CSV: `n` copies of `repeated`, then `last`.
std::string OneColumn(size_t n, const std::string& repeated,
                      const std::string& last) {
  std::string text = "x\n";
  for (size_t i = 0; i < n; ++i) text += repeated + "\n";
  return text + last + "\n";
}

TEST(CsvTest, InfersTypesPerColumn) {
  auto t = *ReadCsv("a,b,c,d\n1,1.5,hello,true\n2,2.5,world,false\n");
  EXPECT_EQ(t->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t->schema().field(1).type, DataType::kDouble);
  EXPECT_EQ(t->schema().field(2).type, DataType::kString);
  EXPECT_EQ(t->schema().field(3).type, DataType::kBool);
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvTest, IntWidensToDouble) {
  auto t = *ReadCsv("x\n1\n2.5\n3\n");
  EXPECT_EQ(t->schema().field(0).type, DataType::kDouble);
  EXPECT_DOUBLE_EQ(t->column(0)->doubles()[0], 1.0);
}

TEST(CsvTest, MixedWithStringBecomesString) {
  auto t = *ReadCsv("x\n1\nabc\n");
  EXPECT_EQ(t->schema().field(0).type, DataType::kString);
}

TEST(CsvTest, BoolMixedWithNumberBecomesString) {
  auto t = *ReadCsv("x\ntrue\n3\n");
  EXPECT_EQ(t->schema().field(0).type, DataType::kString);
}

TEST(CsvTest, NullTokens) {
  auto t = *ReadCsv("x,y\n1,NA\n,2\nNULL,3\n");
  EXPECT_EQ(t->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t->column(0)->null_count(), 2u);
  EXPECT_EQ(t->column(1)->null_count(), 1u);
}

TEST(CsvTest, AllNullColumnIsString) {
  auto t = *ReadCsv("x\nNA\nNA\n");
  EXPECT_EQ(t->schema().field(0).type, DataType::kString);
  EXPECT_EQ(t->column(0)->null_count(), 2u);
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndQuotes) {
  auto t = *ReadCsv("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  EXPECT_EQ(t->GetValue(0, 0).AsString(), "x,y");
  EXPECT_EQ(t->GetValue(0, 1).AsString(), "he said \"hi\"");
}

TEST(CsvTest, RaggedRowFails) {
  auto r = ReadCsv("a,b\n1,2\n3\n");
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, BlankLineMidFileIsAOneFieldRecord) {
  auto r = ReadCsv("a,b\n1,2\n\n3,4\n");
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(r.status().message(), "line 3 has 1 fields, expected 2");
}

TEST(CsvTest, TypeDriftWidensInsteadOfFailing) {
  auto t = *ReadCsv("x\n1\n2\nnot_a_number\n");
  ASSERT_EQ(t->schema().field(0).type, DataType::kString);
  EXPECT_EQ(t->GetValue(0, 0).AsString(), "1");
  EXPECT_EQ(t->GetValue(2, 0).AsString(), "not_a_number");
}

TEST(CsvTest, DoubleAfterFirstThousandRowsWidensIntsToDouble) {
  auto t = *ReadCsv(OneColumn(1500, "7", "2.5"));
  ASSERT_EQ(t->schema().field(0).type, DataType::kDouble);
  ASSERT_EQ(t->num_rows(), 1501u);
  EXPECT_DOUBLE_EQ(t->column(0)->doubles()[1499], 7.0);
  EXPECT_DOUBLE_EQ(t->column(0)->doubles()[1500], 2.5);
}

TEST(CsvTest, WordAfterFirstThousandRowsWidensIntsToString) {
  auto t = *ReadCsv(OneColumn(1500, "7", "seven"));
  ASSERT_EQ(t->schema().field(0).type, DataType::kString);
  EXPECT_EQ(t->GetValue(0, 0).AsString(), "7");
  EXPECT_EQ(t->GetValue(1500, 0).AsString(), "seven");
}

TEST(CsvTest, TwoColumnsWidenInOneFileAndEveryRowSurvives) {
  // `a` drifts from int64 to double at row 1200, `b` from bool to string at
  // row 1400; `c` stays int64. Both widen in the same re-parse.
  std::string text = "a,b,c\n";
  for (int r = 0; r < 2000; ++r) {
    std::string a = r == 1200 ? "0.5" : std::to_string(r);
    std::string b = r == 1400 ? "maybe" : (r % 2 ? "true" : "false");
    text += a + "," + b + "," + std::to_string(-r) + "\n";
  }
  auto t = *ReadCsv(text);
  ASSERT_EQ(t->num_rows(), 2000u);
  ASSERT_EQ(t->schema().field(0).type, DataType::kDouble);
  ASSERT_EQ(t->schema().field(1).type, DataType::kString);
  ASSERT_EQ(t->schema().field(2).type, DataType::kInt64);
  for (size_t r = 0; r < 2000; ++r) {
    EXPECT_DOUBLE_EQ(t->column(0)->doubles()[r], r == 1200 ? 0.5 : r);
    EXPECT_EQ(t->column(1)->StringAt(r),
              r == 1400 ? "maybe" : (r % 2 ? "true" : "false"));
    EXPECT_EQ(t->column(2)->ints()[r], -static_cast<int64_t>(r));
  }
}

TEST(CsvTest, LeadingNullsDoNotDecideTheType) {
  auto t = *ReadCsv(OneColumn(1500, "NA", "42"));
  ASSERT_EQ(t->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t->column(0)->null_count(), 1500u);
  EXPECT_EQ(t->column(0)->ints()[1500], 42);
}

TEST(CsvTest, EmptyInputFails) {
  auto r = ReadCsv("");
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, UnterminatedQuoteFails) {
  auto r = ReadCsv("a\n\"oops\n");
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, CrlfTolerated) {
  auto t = *ReadCsv("a,b\r\n1,2\r\n");
  EXPECT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 1).AsInt(), 2);
}

TEST(CsvTest, RoundTripPreservesData) {
  auto t1 = *ReadCsv(
      "id,name,score,flag\n1,alpha,1.5,true\n2,\"b,c\",NA,false\n");
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*t1, out).ok());
  auto t2 = *ReadCsv(out.str());
  ASSERT_EQ(t2->num_rows(), t1->num_rows());
  ASSERT_EQ(t2->num_columns(), t1->num_columns());
  for (size_t r = 0; r < t1->num_rows(); ++r) {
    for (size_t c = 0; c < t1->num_columns(); ++c) {
      EXPECT_EQ(t1->GetValue(r, c), t2->GetValue(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
}

TEST(CsvTest, QuotedNewlineAndCrRoundTrip) {
  TableBuilder b(Schema({{"s", DataType::kString}, {"n", DataType::kInt64}}));
  for (const char* s : {"two\nlines", "cr\rinside", "crlf\r\n", "plain"}) {
    ASSERT_TRUE(b.AppendRow({Value::Str(s), Value::Int(1)}).ok());
  }
  auto t1 = *b.Finish();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*t1, out).ok());
  auto t2 = *ReadCsv(out.str());
  ASSERT_EQ(t2->num_rows(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(t2->GetValue(r, 0), t1->GetValue(r, 0)) << "row " << r;
    EXPECT_EQ(t2->GetValue(r, 1).AsInt(), 1);
  }
}

TEST(CsvTest, FileMissingFails) {
  auto r = ReadCsvFile("/nonexistent/definitely_missing.csv");
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, DirectoryFails) {
  auto r = ReadCsvFile(std::filesystem::temp_directory_path().string());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, FileRoundTrip) {
  auto t1 = *ReadCsv("id,name\n1,\"a,b\"\n2,NA\n");
  const std::string path = testing::TempDir() + "csv_test_round_trip.csv";
  ASSERT_TRUE(WriteCsvFile(*t1, path).ok());
  auto t2 = *ReadCsvFile(path);
  std::filesystem::remove(path);
  ASSERT_EQ(t2->num_rows(), 2u);
  EXPECT_EQ(t2->GetValue(0, 1).AsString(), "a,b");
  EXPECT_TRUE(t2->GetValue(1, 1).is_null());
}

}  // namespace
}  // namespace blaeu::monet
