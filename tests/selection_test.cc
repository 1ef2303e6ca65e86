// Unit tests for selection vectors.
#include "monet/selection.h"

#include <gtest/gtest.h>

namespace blaeu::monet {
namespace {

TEST(SelectionTest, AllCoversRange) {
  SelectionVector s = SelectionVector::All(4);
  EXPECT_EQ(s.rows(), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(SelectionVector::All(0).size(), 0u);
}

TEST(SelectionTest, Intersect) {
  SelectionVector a({0, 2, 4, 6});
  SelectionVector b({2, 3, 4, 7});
  EXPECT_EQ(a.Intersect(b).rows(), (std::vector<uint32_t>{2, 4}));
  EXPECT_EQ(a.Intersect(SelectionVector()).size(), 0u);
}

TEST(SelectionTest, SetAlgebraIdentities) {
  SelectionVector a({1, 4, 9});
  EXPECT_EQ(a.Intersect(a), a);
}

}  // namespace
}  // namespace blaeu::monet
