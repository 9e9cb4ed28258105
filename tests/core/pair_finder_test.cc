#include "core/pair_finder.h"

#include <gtest/gtest.h>

#include "instance/hard_set_cover.h"
#include "stream/set_stream.h"

namespace streamsc {
namespace {

TEST(PairFinderTest, FindsObviousPair) {
  SetSystem system(8);
  system.AddSetFromIndices({0, 1, 2, 3});
  system.AddSetFromIndices({4, 5, 6, 7});
  system.AddSetFromIndices({0, 4});
  VectorSetStream stream(system);
  ExactPairFinder finder(PairFinderConfig{2, 1000});
  const PairFinderResult result = finder.Run(stream);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
  EXPECT_EQ(result.stats.passes, 2u);
}

TEST(PairFinderTest, SingleSetCoverReported) {
  SetSystem system(8);
  system.AddSetFromIndices({0, 1});
  system.AddSet(DynamicBitset::Full(8));
  VectorSetStream stream(system);
  ExactPairFinder finder(PairFinderConfig{2, 1000});
  const PairFinderResult result = finder.Run(stream);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.solution.size(), 1u);
  EXPECT_EQ(result.solution.chosen[0], 1u);
}

TEST(PairFinderTest, ReportsAbsenceWhenNoPairCovers) {
  SetSystem system(9);
  system.AddSetFromIndices({0, 1, 2});
  system.AddSetFromIndices({3, 4, 5});
  system.AddSetFromIndices({6, 7, 8});
  VectorSetStream stream(system);
  ExactPairFinder finder(PairFinderConfig{3, 1000});
  const PairFinderResult result = finder.Run(stream);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.solution.empty());
}

TEST(PairFinderTest, FindsPlantedPairOnHardDistribution) {
  HardSetCoverParams params;
  params.n = 512;
  params.m = 12;
  params.alpha = 2.0;
  params.t_scale = 1.0;
  HardSetCoverDistribution dist(params);
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const HardSetCoverInstance inst = dist.SampleThetaOne(rng);
    const SetSystem system = inst.ToSetSystem();
    VectorSetStream stream(system);
    ExactPairFinder finder(PairFinderConfig{4, 100000});
    const PairFinderResult result = finder.Run(stream);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
  }
}

TEST(PairFinderTest, RejectsThetaZeroInstances) {
  HardSetCoverParams params;
  params.n = 512;
  params.m = 10;
  params.alpha = 2.0;
  params.t_scale = 1.0;
  HardSetCoverDistribution dist(params);
  Rng rng(2);
  const HardSetCoverInstance inst = dist.SampleThetaZero(rng);
  const SetSystem system = inst.ToSetSystem();
  VectorSetStream stream(system);
  ExactPairFinder finder(PairFinderConfig{4, 100000});
  const PairFinderResult result = finder.Run(stream);
  EXPECT_FALSE(result.found);
}

TEST(PairFinderTest, MorePassesLessSpace) {
  // The linear n/p tradeoff (Result 1, footnote 1): projections per pass
  // shrink proportionally to 1/p.
  HardSetCoverParams params;
  params.n = 2048;
  params.m = 16;
  params.alpha = 2.0;
  params.t_scale = 1.0;
  HardSetCoverDistribution dist(params);
  Rng rng(3);
  const HardSetCoverInstance inst = dist.SampleThetaOne(rng);
  const SetSystem system = inst.ToSetSystem();
  Bytes previous = 0;
  bool first = true;
  for (const std::size_t p : {1, 2, 4, 8}) {
    VectorSetStream stream(system);
    ExactPairFinder finder(PairFinderConfig{p, 1000000});
    const PairFinderResult result = finder.Run(stream);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.stats.passes, p);
    if (!first) {
      EXPECT_LT(result.stats.peak_space_bytes, previous);
    }
    previous = result.stats.peak_space_bytes;
    first = false;
  }
}

TEST(PairFinderTest, PassCountEqualsConfig) {
  SetSystem system(16);
  system.AddSet(DynamicBitset::Full(16));
  VectorSetStream stream(system);
  ExactPairFinder finder(PairFinderConfig{5, 100});
  const PairFinderResult result = finder.Run(stream);
  EXPECT_EQ(result.stats.passes, 5u);
  EXPECT_TRUE(result.found);
}

TEST(PairFinderTest, CandidateCapAborts) {
  // Everything covers everything: m²/2 candidates exceed a tiny cap.
  SetSystem system(4);
  for (int i = 0; i < 10; ++i) system.AddSet(DynamicBitset::Full(4));
  VectorSetStream stream(system);
  ExactPairFinder finder(PairFinderConfig{2, 3});
  const PairFinderResult result = finder.Run(stream);
  EXPECT_FALSE(result.found);  // aborted, reported as not found
}

TEST(PairFinderDeathTest, RejectsZeroPasses) {
  PairFinderConfig config;
  config.passes = 0;
  EXPECT_DEATH(ExactPairFinder{config}, "at least one pass");
}

}  // namespace
}  // namespace streamsc
