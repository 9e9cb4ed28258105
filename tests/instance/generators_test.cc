#include "instance/generators.h"

#include <gtest/gtest.h>

#include "offline/exact_set_cover.h"
#include "offline/greedy.h"

namespace streamsc {
namespace {

TEST(GeneratorsTest, UniformRandomShape) {
  Rng rng(1);
  const SetSystem system = UniformRandomInstance(100, 20, 10, rng);
  EXPECT_GE(system.num_sets(), 20u);
  EXPECT_LE(system.num_sets(), 21u);  // + optional patch set
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(system.set(i).CountSet(), 10u);
  }
  EXPECT_TRUE(system.IsCoverable());
}

TEST(GeneratorsTest, UniformRandomNoPatchWhenDense) {
  Rng rng(2);
  // 40 sets of size 50 over 100 elements cover everything w.h.p.
  const SetSystem system = UniformRandomInstance(100, 40, 50, rng);
  EXPECT_EQ(system.num_sets(), 40u);
}

TEST(GeneratorsTest, PlantedCoverIsFeasibleAndOptimal) {
  Rng rng(3);
  std::vector<SetId> planted;
  const SetSystem system = PlantedCoverInstance(120, 30, 4, rng, &planted);
  ASSERT_EQ(planted.size(), 4u);
  EXPECT_TRUE(system.IsFeasibleCover(planted));
  // The planted cover is exactly optimal (private elements force it).
  const ExactSetCoverResult exact = SolveExactSetCover(system);
  ASSERT_TRUE(exact.feasible && exact.complete);
  EXPECT_EQ(exact.solution.size(), 4u);
}

TEST(GeneratorsTest, PlantedBlocksPartition) {
  Rng rng(4);
  std::vector<SetId> planted;
  const SetSystem system = PlantedCoverInstance(100, 10, 5, rng, &planted);
  DynamicBitset all(100);
  Count total = 0;
  for (SetId id : planted) {
    system.set(id).OrInto(all);
    total += system.set(id).CountSet();
  }
  EXPECT_TRUE(all.All());
  EXPECT_EQ(total, 100u);  // disjoint blocks
}

TEST(GeneratorsTest, PlantedCoverSizeOne) {
  Rng rng(5);
  std::vector<SetId> planted;
  const SetSystem system = PlantedCoverInstance(50, 8, 1, rng, &planted);
  ASSERT_EQ(planted.size(), 1u);
  EXPECT_TRUE(system.set(planted[0]).All());
}

TEST(GeneratorsTest, ZipfSizesDecay) {
  Rng rng(6);
  const SetSystem system = ZipfInstance(200, 30, 1.0, 100, rng);
  EXPECT_GE(system.set(0).CountSet(), system.set(10).CountSet());
  EXPECT_GE(system.set(10).CountSet(), system.set(29).CountSet());
  EXPECT_TRUE(system.IsCoverable());
}

TEST(GeneratorsTest, ZipfMinimumSizeOne) {
  Rng rng(7);
  const SetSystem system = ZipfInstance(100, 50, 2.0, 50, rng);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_GE(system.set(i).CountSet(), 1u);
  }
}

TEST(GeneratorsTest, BlogTopicFeasibleWithHubs) {
  Rng rng(8);
  const SetSystem system = BlogTopicInstance(150, 40, 0.1, rng);
  EXPECT_TRUE(system.IsCoverable());
  EXPECT_GE(system.num_sets(), 40u);
  // Hubs are big: the first set covers at least a quarter of topics.
  EXPECT_GE(system.set(0).CountSet(), 150u / 4);
}

TEST(GeneratorsTest, NeedleOptimumIsExactlyK) {
  Rng rng(9);
  const SetSystem system = NeedleInstance(80, 20, 4, rng);
  EXPECT_TRUE(system.IsCoverable());
  const ExactSetCoverResult exact = SolveExactSetCover(system);
  ASSERT_TRUE(exact.feasible && exact.complete);
  EXPECT_EQ(exact.solution.size(), 4u);
}

TEST(GeneratorsTest, NeedleHaystackSetsMissPrivates) {
  Rng rng(10);
  const SetSystem system = NeedleInstance(60, 12, 3, rng);
  // The first 3 sets are the needles (a partition); the rest never cover
  // all of any needle's private residue, so greedy still needs needles.
  const Solution greedy = GreedySetCover(system);
  EXPECT_TRUE(system.IsFeasibleCover(greedy.chosen));
}

TEST(GeneratorsTest, DeterministicUnderSameSeed) {
  Rng rng1(42), rng2(42);
  const SetSystem a = UniformRandomInstance(64, 10, 8, rng1);
  const SetSystem b = UniformRandomInstance(64, 10, 8, rng2);
  ASSERT_EQ(a.num_sets(), b.num_sets());
  for (std::size_t i = 0; i < a.num_sets(); ++i) {
    EXPECT_EQ(a.set(i), b.set(i));
  }
}

}  // namespace
}  // namespace streamsc
