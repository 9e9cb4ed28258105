#include "offline/greedy.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "instance/generators.h"
#include "util/math.h"
#include "util/random.h"

namespace streamsc {
namespace {

TEST(GreedySetCoverTest, CoversSimpleInstance) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1, 2});
  system.AddSetFromIndices({3, 4});
  system.AddSetFromIndices({5});
  const Solution solution = GreedySetCover(system);
  EXPECT_TRUE(system.IsFeasibleCover(solution.chosen));
  EXPECT_EQ(solution.size(), 3u);
}

TEST(GreedySetCoverTest, PicksLargestFirst) {
  SetSystem system(6);
  system.AddSetFromIndices({0});
  system.AddSetFromIndices({0, 1, 2, 3, 4, 5});
  const Solution solution = GreedySetCover(system);
  ASSERT_EQ(solution.size(), 1u);
  EXPECT_EQ(solution.chosen[0], 1u);
}

TEST(GreedySetCoverTest, TieBreaksByLowerId) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  system.AddSetFromIndices({0, 1});
  const Solution solution = GreedySetCover(system);
  EXPECT_EQ(solution.chosen[0], 0u);
}

TEST(GreedySetCoverTest, RestrictedUniverse) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1});
  system.AddSetFromIndices({2, 3});
  system.AddSetFromIndices({4, 5});
  DynamicBitset universe(6);
  universe.Set(0);
  universe.Set(2);
  const Solution solution = GreedySetCover(system, universe);
  EXPECT_EQ(solution.size(), 2u);
  EXPECT_TRUE(universe.IsSubsetOf(system.UnionOf(solution.chosen)));
}

TEST(GreedySetCoverTest, InfeasibleResidueStops) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1});
  // Elements 2, 3 uncoverable.
  const Solution solution = GreedySetCover(system);
  EXPECT_EQ(solution.size(), 1u);
  EXPECT_FALSE(system.IsFeasibleCover(solution.chosen));
}

TEST(GreedySetCoverTest, EmptyUniverseNeedsNothing) {
  SetSystem system(4);
  system.AddSetFromIndices({0});
  const Solution solution = GreedySetCover(system, DynamicBitset(4));
  EXPECT_TRUE(solution.empty());
}

TEST(GreedySetCoverTest, LnNApproximationOnPlanted) {
  // Greedy is within H_n of optimal (classic guarantee).
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<SetId> planted;
    const SetSystem system = PlantedCoverInstance(200, 40, 5, rng, &planted);
    const Solution greedy = GreedySetCover(system);
    EXPECT_TRUE(system.IsFeasibleCover(greedy.chosen));
    EXPECT_LE(static_cast<double>(greedy.size()),
              HarmonicNumber(200) * 5.0 + 1.0);
  }
}

TEST(GreedyMaxCoverageTest, RespectsBudget) {
  SetSystem system(10);
  for (int i = 0; i < 5; ++i) {
    system.AddSetFromIndices({static_cast<ElementId>(2 * i),
                              static_cast<ElementId>(2 * i + 1)});
  }
  const Solution solution = GreedyMaxCoverage(system, 3);
  EXPECT_EQ(solution.size(), 3u);
  EXPECT_EQ(system.CoverageOf(solution.chosen), 6u);
}

TEST(GreedyMaxCoverageTest, StopsEarlyWhenCovered) {
  SetSystem system(4);
  system.AddSetFromIndices({0, 1, 2, 3});
  system.AddSetFromIndices({0});
  const Solution solution = GreedyMaxCoverage(system, 3);
  EXPECT_EQ(solution.size(), 1u);
}

TEST(GreedyMaxCoverageTest, MarginalGainNotRawSize) {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1, 2, 3});
  system.AddSetFromIndices({0, 1, 2});    // large but redundant
  system.AddSetFromIndices({4, 5});       // small but new
  const Solution solution = GreedyMaxCoverage(system, 2);
  ASSERT_EQ(solution.size(), 2u);
  EXPECT_EQ(solution.chosen[0], 0u);
  EXPECT_EQ(solution.chosen[1], 2u);
}

TEST(GreedyMaxCoverageTest, OneMinusOneOverEOnRandom) {
  // Greedy k-coverage is a (1 - 1/e) approximation; against the trivially
  // bounded optimum (full universe) on dense instances it comes close.
  Rng rng(2);
  const SetSystem system = UniformRandomInstance(100, 30, 40, rng);
  const Solution solution = GreedyMaxCoverage(system, 5);
  EXPECT_GE(static_cast<double>(system.CoverageOf(solution.chosen)),
            (1.0 - 1.0 / 2.718281828) * 100.0 * 0.9);
}

TEST(GreedyMaxCoverageTest, ZeroBudget) {
  SetSystem system(4);
  system.AddSetFromIndices({0});
  EXPECT_TRUE(GreedyMaxCoverage(system, 0).empty());
}

TEST(GreedyMaxCoverageTest, RestrictedUniverseCoverage) {
  SetSystem system(8);
  system.AddSetFromIndices({0, 1, 2, 3});
  system.AddSetFromIndices({4, 5});
  DynamicBitset universe(8);
  universe.Set(4);
  universe.Set(5);
  const Solution solution = GreedyMaxCoverage(system, universe, 1);
  ASSERT_EQ(solution.size(), 1u);
  EXPECT_EQ(solution.chosen[0], 1u);
}

// ---------------------------------------------------------------------------
// Differential check against the plain rescan loop. Callers and golden pins
// depend on the exact pick order "max marginal gain, lowest id on ties", so
// the library must return the same sequence as this reference, which
// rescans every set for every pick.

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

std::vector<SetId> ReferenceGreedy(const SetSystem& system,
                                   const DynamicBitset& universe,
                                   std::size_t k) {
  DynamicBitset uncovered(universe);
  std::vector<SetId> chosen;
  while (chosen.size() < k && !uncovered.None()) {
    SetId best = kInvalidSetId;
    Count best_gain = 0;
    for (SetId i = 0; i < system.num_sets(); ++i) {
      const Count gain = system.set(i).CountAnd(uncovered);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == kInvalidSetId) break;
    chosen.push_back(best);
    system.set(best).AndNotInto(uncovered);
  }
  return chosen;
}

std::vector<SetId> Ids(const Solution& solution) {
  return {solution.chosen.begin(), solution.chosen.end()};
}

// Compares GreedySetCover and GreedyMaxCoverage (k in {0, 1, 3, 17}) with
// the reference, over the full universe and over a random half of it.
void ExpectMatchesReference(const SetSystem& system, std::uint64_t seed) {
  const DynamicBitset full = DynamicBitset::Full(system.universe_size());
  Rng rng(seed);
  const DynamicBitset half = rng.BernoulliSubsample(full, 0.5);
  EXPECT_EQ(Ids(GreedySetCover(system)),
            ReferenceGreedy(system, full, kUnbounded));
  for (const DynamicBitset* universe : {&full, &half}) {
    SCOPED_TRACE(universe == &full ? "full universe" : "half universe");
    EXPECT_EQ(Ids(GreedySetCover(system, *universe)),
              ReferenceGreedy(system, *universe, kUnbounded));
    for (const std::size_t k : {0u, 1u, 3u, 17u}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      EXPECT_EQ(Ids(GreedyMaxCoverage(system, *universe, k)),
                ReferenceGreedy(system, *universe, k));
    }
  }
  for (const std::size_t k : {0u, 1u, 3u, 17u}) {
    EXPECT_EQ(Ids(GreedyMaxCoverage(system, k)),
              ReferenceGreedy(system, full, k));
  }
}

constexpr std::uint64_t kDiffSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};

TEST(GreedyDifferentialTest, UniformMatchesReference) {
  for (const std::uint64_t seed : kDiffSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    ExpectMatchesReference(UniformRandomInstance(300, 60, 20, rng), seed);
  }
}

TEST(GreedyDifferentialTest, PlantedMatchesReference) {
  for (const std::uint64_t seed : kDiffSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    ExpectMatchesReference(PlantedCoverInstance(300, 60, 6, rng), seed);
  }
}

TEST(GreedyDifferentialTest, ZipfMatchesReference) {
  for (const std::uint64_t seed : kDiffSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    ExpectMatchesReference(ZipfInstance(300, 80, 1.2, 100, rng), seed);
  }
}

TEST(GreedyDifferentialTest, BlogMatchesReference) {
  for (const std::uint64_t seed : kDiffSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    ExpectMatchesReference(BlogTopicInstance(300, 80, 0.15, rng), seed);
  }
}

TEST(GreedyDifferentialTest, NeedleMatchesReference) {
  for (const std::uint64_t seed : kDiffSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    ExpectMatchesReference(NeedleInstance(300, 60, 5, rng), seed);
  }
}

TEST(GreedyDifferentialTest, TieHeavyMatchesReference) {
  // 200 three-element sets over 24 elements: almost every pick is a tie
  // among many sets of equal gain, so the lowest-id rule decides it.
  for (const std::uint64_t seed : kDiffSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    ExpectMatchesReference(UniformRandomInstance(24, 200, 3, rng), seed);
  }
}

TEST(GreedyDifferentialTest, PinnedPickOrder) {
  // The full pick sequence of one fixed-seed instance of the benchmark's
  // greedy sub-solve shape (n=5000, m=400, |S|=50), recorded from the
  // rescan loop. Id 400 is the generator's feasibility patch set.
  Rng rng(41);
  const SetSystem system = UniformRandomInstance(5000, 400, 50, rng);
  const std::vector<SetId> expected = {
      400, 0, 1, 3, 15, 17, 67, 112, 155, 160, 75, 92, 206, 358, 180,
      226, 51, 84, 166, 296, 384, 59, 352, 380, 242, 25, 38, 182, 35,
      108, 60, 152, 164, 174, 105, 154, 223, 138, 295, 144, 284, 91,
      142, 7, 72, 176, 116, 158, 186, 283, 189, 269, 309, 150, 381, 88,
      114, 319, 10, 46, 100, 262, 101, 118, 292, 346, 95, 98, 275, 299,
      221, 276, 370, 6, 215, 313, 366, 374, 66, 104, 291, 52, 82, 173,
      267, 379, 2, 122, 338, 13, 47, 90, 268, 19, 143, 217, 29, 229,
      318, 355, 32, 41, 56, 78, 129, 136, 149, 157, 251, 373, 213, 258,
      339, 124, 146, 395, 26, 30, 147, 204, 220, 246, 288, 49, 127, 195,
      244, 11, 169, 190, 207, 263, 4, 74, 228, 248, 271, 36, 73, 281,
      331, 334, 388, 14, 31, 97, 199, 274, 321, 359, 9, 12, 24, 53, 94,
      178, 236, 55, 68, 93, 148, 165, 224, 286, 329, 377, 21, 96, 103,
      202, 225, 250, 282, 297, 316, 372, 79, 83, 86, 137, 159, 256, 266,
      326, 363, 33, 153, 156, 181, 191, 210, 212, 337, 344, 40, 50, 54,
      63, 107, 139, 171, 177, 184, 188, 239, 240, 243, 314, 378, 22, 23,
      37, 57, 87, 89, 132, 192, 198, 234, 277, 279, 301, 311, 365, 386,
      389, 20, 27, 39, 58, 80, 125, 130, 163, 170, 172, 179, 193, 196,
      200, 203, 211, 241, 252, 255, 298, 306, 333, 360, 368, 369, 375,
      385, 5, 28, 43, 44, 48, 61, 81, 99, 106, 123, 135, 141, 151, 161,
      162, 185, 194, 201, 208, 227, 249, 259, 260, 261, 278, 285, 335,
      356, 393, 8, 16, 62, 64, 69, 77, 102, 109, 128, 131, 134, 183,
      187, 197, 218, 219, 222, 245, 273, 289, 294, 303, 310, 315, 317,
      320, 322, 332, 340, 341, 349, 361, 362, 364, 376, 387, 390, 394,
      397,
  };
  ASSERT_EQ(expected.size(), 321u);
  EXPECT_EQ(Ids(GreedySetCover(system)), expected);
  EXPECT_EQ(Ids(GreedyMaxCoverage(system, 40)),
            std::vector<SetId>(expected.begin(), expected.begin() + 40));
}

}  // namespace
}  // namespace streamsc
