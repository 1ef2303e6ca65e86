// Unit tests for the sampling primitives and the multi-scale sampler.
#include "monet/sampling.h"

#include <gtest/gtest.h>

#include <set>

namespace blaeu::monet {
namespace {

TEST(SamplingTest, UniformSampleSizeAndRange) {
  Rng rng(1);
  SelectionVector s = UniformSampleIndices(100, 20, &rng);
  EXPECT_EQ(s.size(), 20u);
  std::set<uint32_t> unique(s.rows().begin(), s.rows().end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_TRUE(std::is_sorted(s.rows().begin(), s.rows().end()));
  for (uint32_t r : s.rows()) EXPECT_LT(r, 100u);
}

TEST(SamplingTest, UniformSampleWholePopulation) {
  Rng rng(2);
  SelectionVector s = UniformSampleIndices(10, 50, &rng);
  EXPECT_EQ(s.size(), 10u);
}

TEST(SamplingTest, SampleFromSelectionSubsets) {
  Rng rng(3);
  SelectionVector base({5, 10, 15, 20, 25, 30});
  SelectionVector s = SampleFromSelection(base, 3, &rng);
  EXPECT_EQ(s.size(), 3u);
  for (uint32_t r : s.rows()) {
    EXPECT_TRUE(std::binary_search(base.rows().begin(), base.rows().end(), r));
  }
  // k >= size returns base unchanged.
  EXPECT_EQ(SampleFromSelection(base, 10, &rng), base);
}

TEST(SamplingTest, DeterministicGivenSeed) {
  Rng a(99), b(99);
  EXPECT_EQ(UniformSampleIndices(500, 50, &a).rows(),
            UniformSampleIndices(500, 50, &b).rows());
}

TEST(MultiScaleSamplerTest, SampleAtMostRespectsSelection) {
  Rng rng(11);
  MultiScaleSampler sampler(1000, &rng);
  // Selection: even rows only.
  std::vector<uint32_t> even;
  for (uint32_t i = 0; i < 1000; i += 2) even.push_back(i);
  SelectionVector sel(even);
  SelectionVector s = sampler.SampleAtMost(sel, 40);
  EXPECT_EQ(s.size(), 40u);
  for (uint32_t r : s.rows()) EXPECT_EQ(r % 2, 0u);
  // Small selections pass through untouched.
  SelectionVector tiny({2, 4, 6});
  EXPECT_EQ(sampler.SampleAtMost(tiny, 40), tiny);
}

TEST(MultiScaleSamplerTest, NestedAcrossBudgets) {
  Rng rng(12);
  MultiScaleSampler sampler(5000, &rng);
  SelectionVector sel = SelectionVector::All(5000);
  SelectionVector small = sampler.SampleAtMost(sel, 200);
  SelectionVector big = sampler.SampleAtMost(sel, 800);
  EXPECT_EQ(small.Intersect(big).size(), small.size());
}

}  // namespace
}  // namespace blaeu::monet
