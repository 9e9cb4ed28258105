#include "core/har_peled_set_cover.h"

#include <gtest/gtest.h>

#include "core/assadi_set_cover.h"
#include "instance/generators.h"
#include "stream/set_stream.h"

namespace streamsc {
namespace {

TEST(HarPeledSetCoverTest, CoversPlantedInstance) {
  Rng rng(1);
  const SetSystem system = PlantedCoverInstance(400, 40, 4, rng);
  VectorSetStream stream(system);
  HarPeledConfig config;
  config.alpha = 2;
  HarPeledSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
}

TEST(HarPeledSetCoverTest, KnownOptWorks) {
  Rng rng(2);
  const SetSystem system = PlantedCoverInstance(300, 30, 3, rng);
  VectorSetStream stream(system);
  HarPeledConfig config;
  config.alpha = 2;
  config.known_opt = 3;
  HarPeledSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
}

TEST(HarPeledSetCoverTest, CountsExactSubsolveWork) {
  Rng rng(2);
  const SetSystem system = UniformRandomInstance(300, 40, 30, rng);
  const CounterId nodes = CounterId::Counter("offline.exact_nodes");
  const CounterId budget_hits = CounterId::Counter("offline.exact_budget_hits");
  const CounterId failures =
      CounterId::Counter("offline.exact_budget_failures");
  HarPeledConfig config;
  config.alpha = 2;
  {
    VectorSetStream stream(system);
    HarPeledSetCover algorithm(config);
    const SetCoverRunResult result = algorithm.Run(stream);
    ASSERT_TRUE(result.feasible);
    EXPECT_GT(result.stats.counters.value(nodes), 0u);
    EXPECT_EQ(result.stats.counters.value(budget_hits), 0u);
    EXPECT_EQ(result.stats.counters.value(failures), 0u);
  }
  {
    // A one-node budget stops every non-trivial sub-solve.
    VectorSetStream stream(system);
    config.exact_node_budget = 1;
    HarPeledSetCover algorithm(config);
    const SetCoverRunResult result = algorithm.Run(stream);
    EXPECT_GE(result.stats.counters.value(budget_hits), 1u);
    EXPECT_GE(result.stats.counters.value(failures), 1u);
    EXPECT_LE(result.stats.counters.value(failures),
              result.stats.counters.value(budget_hits));
  }
}

TEST(HarPeledSetCoverTest, UsesMoreSpaceThanAssadiAtEqualAlpha) {
  // The paper's point (Section 3.4): the sharper element-sampling rate
  // (ρ = n^{-1/α} instead of n^{-2/α}) shrinks the space-dominant stored
  // projections. Pruning can mask this on instances whose optimal sets are
  // large, so compare the store stage with a guess õpt below opt — the
  // regime every run of the guessing driver passes through. Neither
  // algorithm prunes anything (thresholds exceed every set size), both
  // store one round of projections, and the Har-Peled rate is larger by a
  // factor ≈ n^{1/α}.
  Rng rng(3);
  const std::size_t n = 4096, m = 64, opt = 16;
  const SetSystem system = PlantedCoverInstance(n, m, opt, rng);
  const std::size_t alpha = 4;

  VectorSetStream stream_a(system);
  AssadiConfig assadi_config;
  assadi_config.alpha = alpha;
  assadi_config.epsilon = 0.5;
  AssadiSetCover assadi(assadi_config);
  Rng rng_a(4);
  const GuessResult assadi_result =
      assadi.RunWithGuess(stream_a, /*opt_guess=*/1, rng_a);

  VectorSetStream stream_h(system);
  HarPeledConfig hp_config;
  hp_config.alpha = alpha;
  HarPeledSetCover har_peled(hp_config);
  Rng rng_h(5);
  const GuessResult hp_result =
      har_peled.RunWithGuess(stream_h, /*opt_guess=*/1, rng_h);

  EXPECT_LT(assadi_result.stats.peak_space_bytes,
            hp_result.stats.peak_space_bytes);
}

TEST(HarPeledSetCoverTest, FewerIterationsThanAlpha) {
  // ceil(α/2) sampling iterations + pruning passes: pass count stays
  // O(α).
  Rng rng(6);
  const SetSystem system = PlantedCoverInstance(512, 32, 3, rng);
  VectorSetStream stream(system);
  HarPeledConfig config;
  config.alpha = 4;
  config.known_opt = 3;
  HarPeledSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.stats.passes, 3u * 2u + 2u);
}

TEST(HarPeledSetCoverTest, GuessingDriverFindsCover) {
  Rng rng(7);
  const SetSystem system = UniformRandomInstance(256, 40, 48, rng);
  VectorSetStream stream(system);
  HarPeledConfig config;
  config.alpha = 2;
  HarPeledSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
}

TEST(HarPeledSetCoverTest, NameMentionsAlpha) {
  HarPeledConfig config;
  config.alpha = 5;
  HarPeledSetCover algorithm(config);
  EXPECT_NE(algorithm.name().find("alpha=5"), std::string::npos);
}

TEST(HarPeledDeathTest, RejectsAlphaZero) {
  HarPeledConfig config;
  config.alpha = 0;
  EXPECT_DEATH(HarPeledSetCover{config}, "alpha");
}

}  // namespace
}  // namespace streamsc
