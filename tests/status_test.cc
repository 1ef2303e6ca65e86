// Unit tests for Status / Result error handling.
#include "common/status.h"

#include <gtest/gtest.h>

namespace blaeu {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::KeyError("x").code(), StatusCode::kKeyError);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::IndexError("x").code(), StatusCode::kIndexError);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  Status s = Status::Invalid("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::Invalid("a"), Status::Invalid("b"));
  EXPECT_FALSE(Status::Invalid("a") == Status::KeyError("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::KeyError("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kKeyError);
  EXPECT_EQ(r.status().message(), "missing");
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<int> ok_result(7);
  EXPECT_EQ(std::move(ok_result).ValueOr(0), 7);
  Result<int> err(Status::Invalid("x"));
  EXPECT_EQ(std::move(err).ValueOr(9), 9);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

Status FailingHelper() { return Status::IOError("disk"); }

Status PropagatesWithMacro() {
  BLAEU_RETURN_NOT_OK(FailingHelper());
  return Status::OK();  // unreachable
}

TEST(MacroTest, ReturnNotOkPropagates) {
  Status s = PropagatesWithMacro();
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

Result<int> ProducesValue() { return 10; }
Result<int> ProducesError() { return Status::Invalid("nope"); }

Result<int> AssignsWithMacro(bool fail) {
  BLAEU_ASSIGN_OR_RETURN(int v, fail ? ProducesError() : ProducesValue());
  return v + 1;
}

TEST(MacroTest, AssignOrReturnHappyPath) {
  Result<int> r = AssignsWithMacro(false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 11);
}

TEST(MacroTest, AssignOrReturnErrorPath) {
  Result<int> r = AssignsWithMacro(true);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

}  // namespace
}  // namespace blaeu
