#include "offline/lower_bounds.h"

#include <gtest/gtest.h>

#include "instance/generators.h"
#include "offline/exact_set_cover.h"
#include "util/random.h"

namespace streamsc {
namespace {

TEST(SizeLowerBoundTest, PartitionInstance) {
  // 3 disjoint sets of size 2 over [6]: bound = ceil(6/2) = 3 = opt.
  SetSystem system(6);
  system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  system.AddSetFromIndices({4, 5});
  EXPECT_EQ(SizeLowerBound(system), 3u);
}

TEST(SizeLowerBoundTest, EmptyUniverseIsZero) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1});
  EXPECT_EQ(SizeLowerBound(system, DynamicBitset(4)), 0u);
}

TEST(SizeLowerBoundTest, IgnoresUncoverableElements) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1});  // elements 2, 3 uncoverable
  EXPECT_EQ(SizeLowerBound(system), 1u);
}

TEST(PackingLowerBoundTest, DisjointSingletonsPackFully) {
  SetSystem system(4);
  system.AddSetFromIndices({0});
  system.AddSetFromIndices({1});
  system.AddSetFromIndices({2});
  system.AddSetFromIndices({3});
  EXPECT_EQ(PackingLowerBound(system), 4u);
}

TEST(PackingLowerBoundTest, OneBigSetPacksOne) {
  SetSystem system(5);
  system.AddSet(DynamicBitset::Full(5));
  EXPECT_EQ(PackingLowerBound(system), 1u);
}

TEST(PackingLowerBoundTest, SkipsUncoverableElements) {
  SetSystem system(5);
  system.AddSetFromIndices({0, 1});
  // 2, 3, 4 uncoverable: packing over the coverable part only.
  EXPECT_EQ(PackingLowerBound(system), 1u);
}

TEST(DualLowerBoundTest, PartitionGivesExactBound) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1, 2});
  system.AddSetFromIndices({3, 4, 5});
  // y_e = 1/3 each: dual = 2 = opt.
  EXPECT_EQ(DualLowerBound(system), 2u);
}

TEST(DualLowerBoundTest, OverlapKeepsFeasibility) {
  // Element 0 in both a size-3 and a size-1 set: y_0 = 1/3 (max size).
  SetSystem system(3);
  system.AddSetFromIndices({0, 1, 2});
  system.AddSetFromIndices({0});
  // dual = 3 * 1/3 = 1.
  EXPECT_EQ(DualLowerBound(system), 1u);
}

TEST(BestLowerBoundTest, TakesTheMax) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  system.AddSetFromIndices({4, 5});
  EXPECT_EQ(BestLowerBound(system), 3u);
}

// The defining property: every bound is a true lower bound on the proven
// optimum, across random instances.
class LowerBoundSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(LowerBoundSoundnessTest, NeverExceedsOptimum) {
  Rng rng(500 + GetParam());
  SetSystem system(0);
  switch (GetParam() % 3) {
    case 0:
      system = UniformRandomInstance(40, 10, 8, rng);
      break;
    case 1:
      system = PlantedCoverInstance(48, 12, 4, rng);
      break;
    default:
      system = ZipfInstance(40, 12, 1.2, 20, rng);
      break;
  }
  const ExactSetCoverResult exact = SolveExactSetCover(system);
  if (!exact.feasible || !exact.complete) GTEST_SKIP();
  const std::size_t opt = exact.solution.size();
  EXPECT_LE(SizeLowerBound(system), opt);
  EXPECT_LE(PackingLowerBound(system), opt);
  EXPECT_LE(DualLowerBound(system), opt);
  EXPECT_LE(BestLowerBound(system), opt);
  EXPECT_GE(BestLowerBound(system), 1u);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LowerBoundSoundnessTest,
                         ::testing::Range(0, 15));

// Restricted-universe variants stay sound and monotone.
TEST(LowerBoundTest, RestrictedUniverseMonotonicity) {
  Rng rng(42);
  const SetSystem system = UniformRandomInstance(60, 12, 12, rng);
  const DynamicBitset full = DynamicBitset::Full(60);
  const DynamicBitset half = rng.BernoulliSubset(60, 0.5);
  // A smaller target cannot need more sets: bounds should not explode.
  EXPECT_LE(SizeLowerBound(system, half), SizeLowerBound(system, full) + 60);
  const ExactSetCoverResult exact = SolveExactSetCover(system, half);
  if (exact.feasible && exact.complete) {
    EXPECT_LE(BestLowerBound(system, half), exact.solution.size());
  }
}

TEST(LowerBoundTest, PackingBeatsSizeOnStarInstances) {
  // A "star": one hub set {0..9} plus singletons {10}, {11}, ..., {19}.
  // Max set size 10 -> size bound = 2; packing finds 11 (hub-private
  // element + each singleton), which is the true opt.
  SetSystem system(20);
  system.AddSetFromIndices({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  for (ElementId e = 10; e < 20; ++e) {
    system.AddSetFromIndices({e});
  }
  EXPECT_EQ(SizeLowerBound(system), 2u);
  EXPECT_EQ(PackingLowerBound(system), 11u);
  EXPECT_EQ(BestLowerBound(system), 11u);
}

}  // namespace
}  // namespace streamsc
