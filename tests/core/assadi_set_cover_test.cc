#include "core/assadi_set_cover.h"

#include <gtest/gtest.h>

#include "instance/generators.h"
#include "instance/hard_set_cover.h"
#include "offline/verifier.h"
#include "stream/set_stream.h"

namespace streamsc {
namespace {

AssadiConfig DefaultConfig(std::size_t alpha = 2) {
  AssadiConfig config;
  config.alpha = alpha;
  config.epsilon = 0.5;
  config.seed = 7;
  return config;
}

TEST(AssadiSetCoverTest, CoversPlantedInstance) {
  Rng rng(1);
  const SetSystem system = PlantedCoverInstance(400, 40, 4, rng);
  VectorSetStream stream(system);
  AssadiSetCover algorithm(DefaultConfig());
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
}

TEST(AssadiSetCoverTest, ApproximationWithinAlphaPlusEps) {
  // Theorem 2's guarantee against the *known* planted optimum. The driver
  // loses an extra (1+ε) from guessing, so we allow (α+ε)(1+ε).
  Rng rng(2);
  const std::size_t opt = 5;
  for (int trial = 0; trial < 5; ++trial) {
    const SetSystem system = PlantedCoverInstance(500, 50, opt, rng);
    VectorSetStream stream(system);
    AssadiSetCover algorithm(DefaultConfig(2));
    const SetCoverRunResult result = algorithm.Run(stream);
    ASSERT_TRUE(result.feasible);
    const double bound = (2.0 + 0.5) * (1.0 + 0.5) * opt;
    EXPECT_LE(static_cast<double>(result.solution.size()), bound);
  }
}

TEST(AssadiSetCoverTest, KnownOptSkipsGuessing) {
  Rng rng(3);
  const SetSystem system = PlantedCoverInstance(300, 30, 3, rng);
  VectorSetStream stream(system);
  AssadiConfig config = DefaultConfig();
  config.known_opt = 3;
  AssadiSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  // Single guess => exactly the paper's pass budget (2α+1), plus at most
  // one cleanup pass.
  EXPECT_LE(result.stats.passes, 2 * 2 + 1 + 1);
  EXPECT_LE(static_cast<double>(result.solution.size()), (2.0 + 0.5) * 3.0);
}

TEST(AssadiSetCoverTest, SingleGuessPassBudget) {
  Rng rng(4);
  const SetSystem system = PlantedCoverInstance(300, 30, 3, rng);
  VectorSetStream stream(system);
  AssadiSetCover algorithm(DefaultConfig(3));
  Rng run_rng(5);
  const GuessResult result = algorithm.RunWithGuess(stream, 3, run_rng);
  // 1 pruning + per-iteration (store + subtract) + optional cleanup.
  EXPECT_LE(result.stats.passes, 2 * 3 + 1 + 1);
  EXPECT_GE(result.stats.passes, 1u);
}

TEST(AssadiSetCoverTest, GuessBelowOptFailsCleanly) {
  // With õpt = 1 on an opt = 4 instance, the guess must be rejected (the
  // sub-solver proves no size-1 cover of the sample).
  Rng rng(6);
  const SetSystem system = PlantedCoverInstance(300, 20, 4, rng);
  VectorSetStream stream(system);
  AssadiSetCover algorithm(DefaultConfig());
  Rng run_rng(7);
  const GuessResult result = algorithm.RunWithGuess(stream, 1, run_rng);
  EXPECT_FALSE(result.feasible && result.within_budget);
}

TEST(AssadiSetCoverTest, CountsExactSubsolveWork) {
  Rng rng(3);
  const SetSystem system = UniformRandomInstance(300, 40, 30, rng);
  const CounterId nodes = CounterId::Counter("offline.exact_nodes");
  const CounterId budget_hits = CounterId::Counter("offline.exact_budget_hits");
  const CounterId failures =
      CounterId::Counter("offline.exact_budget_failures");
  {
    VectorSetStream stream(system);
    AssadiSetCover algorithm(DefaultConfig());
    const SetCoverRunResult result = algorithm.Run(stream);
    ASSERT_TRUE(result.feasible);
    EXPECT_GT(result.stats.counters.value(nodes), 0u);
    EXPECT_EQ(result.stats.counters.value(budget_hits), 0u);
    EXPECT_EQ(result.stats.counters.value(failures), 0u);
  }
  {
    // A one-node budget stops every non-trivial sub-solve.
    VectorSetStream stream(system);
    AssadiConfig config = DefaultConfig();
    config.exact_node_budget = 1;
    AssadiSetCover algorithm(config);
    const SetCoverRunResult result = algorithm.Run(stream);
    EXPECT_GE(result.stats.counters.value(budget_hits), 1u);
    EXPECT_GE(result.stats.counters.value(nodes),
              result.stats.counters.value(budget_hits));
    // Every budget hit without a within-limit cover fails its guess.
    EXPECT_GE(result.stats.counters.value(failures), 1u);
    EXPECT_LE(result.stats.counters.value(failures),
              result.stats.counters.value(budget_hits));
  }
}

TEST(AssadiSetCoverTest, AlphaOneStoresEverythingAndIsNearExact) {
  // α = 1: ρ = 1/n, so the sampling rate clamps to 1 and one iteration
  // stores the full residual instance — solution within (1+ε)·opt.
  Rng rng(8);
  const std::size_t opt = 4;
  const SetSystem system = PlantedCoverInstance(200, 20, opt, rng);
  VectorSetStream stream(system);
  AssadiConfig config = DefaultConfig(1);
  config.known_opt = opt;
  AssadiSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(static_cast<double>(result.solution.size()),
            (1.0 + config.epsilon) * opt);
}

TEST(AssadiSetCoverTest, SpaceShrinksWithAlpha) {
  // The headline tradeoff: larger α ⇒ smaller peak space (n^{1/α} shape).
  // The paper's constant 16·log m saturates the sampling rate at laptop n,
  // so scale it down uniformly (sampling_boost) to expose the exponent.
  Rng rng(9);
  const SetSystem system = PlantedCoverInstance(16384, 64, 4, rng);
  Bytes previous = 0;
  bool first = true;
  for (std::size_t alpha : {1, 2, 4}) {
    VectorSetStream stream(system);
    AssadiConfig config = DefaultConfig(alpha);
    config.known_opt = 4;
    config.sampling_boost = 1.0 / 16.0;
    AssadiSetCover algorithm(config);
    Rng run_rng(10);
    const GuessResult result = algorithm.RunWithGuess(stream, 4, run_rng);
    if (!first) {
      EXPECT_LT(result.stats.peak_space_bytes, previous);
    }
    previous = result.stats.peak_space_bytes;
    first = false;
  }
}

TEST(AssadiSetCoverTest, SpaceBelowDenseInputSize) {
  // Sublinearity: peak space far below the m·n bits of the dense input.
  Rng rng(11);
  const std::size_t n = 16384, m = 128;
  const SetSystem system = PlantedCoverInstance(n, m, 4, rng);
  VectorSetStream stream(system);
  AssadiConfig config = DefaultConfig(4);
  config.known_opt = 4;
  AssadiSetCover algorithm(config);
  Rng run_rng(12);
  const GuessResult result = algorithm.RunWithGuess(stream, 4, run_rng);
  const Bytes dense_input = static_cast<Bytes>(m) * n / 8;
  EXPECT_LT(result.stats.peak_space_bytes, dense_input / 2);
}

TEST(AssadiSetCoverTest, FeasibleOnHardDistributionThetaOne) {
  // On a planted D_SC instance the algorithm must find *some* cover
  // within its budget (value estimation is what the lower bound bounds).
  HardSetCoverParams params;
  params.n = 512;
  params.m = 10;
  params.alpha = 2.0;
  params.t_scale = 1.0;
  HardSetCoverDistribution dist(params);
  Rng rng(13);
  const HardSetCoverInstance inst = dist.SampleThetaOne(rng);
  const SetSystem system = inst.ToSetSystem();
  VectorSetStream stream(system);
  AssadiSetCover algorithm(DefaultConfig());
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
}

TEST(AssadiSetCoverTest, RandomOrderStreamWorks) {
  Rng rng(14);
  const SetSystem system = PlantedCoverInstance(300, 30, 3, rng);
  Rng order_rng(15);
  VectorSetStream stream(system, StreamOrder::kRandomOnce, &order_rng);
  AssadiSetCover algorithm(DefaultConfig());
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
}

TEST(AssadiSetCoverTest, DeterministicGivenSeed) {
  Rng rng(16);
  const SetSystem system = PlantedCoverInstance(300, 30, 3, rng);
  ArenaVector<SetId> first;
  for (int run = 0; run < 2; ++run) {
    VectorSetStream stream(system);
    AssadiSetCover algorithm(DefaultConfig());
    const SetCoverRunResult result = algorithm.Run(stream);
    ASSERT_TRUE(result.feasible);
    if (run == 0) {
      first = result.solution.chosen;
    } else {
      EXPECT_EQ(result.solution.chosen, first);
    }
  }
}

TEST(AssadiSetCoverTest, NameMentionsParameters) {
  AssadiSetCover algorithm(DefaultConfig(3));
  EXPECT_NE(algorithm.name().find("alpha=3"), std::string::npos);
}

TEST(AssadiSetCoverTest, SamplingBoostIncreasesSpace) {
  Rng rng(17);
  const SetSystem system = PlantedCoverInstance(2048, 48, 4, rng);
  Bytes space_low = 0, space_high = 0;
  for (const double boost : {0.25, 4.0}) {
    VectorSetStream stream(system);
    AssadiConfig config = DefaultConfig(3);
    config.sampling_boost = boost;
    AssadiSetCover algorithm(config);
    Rng run_rng(18);
    const GuessResult result = algorithm.RunWithGuess(stream, 4, run_rng);
    (boost < 1.0 ? space_low : space_high) = result.stats.peak_space_bytes;
  }
  EXPECT_LT(space_low, space_high);
}

// Config validation is CHECK-armed in every build mode (a release build
// used to compile the old asserts out).
TEST(AssadiDeathTest, RejectsDegenerateConfig) {
  AssadiConfig zero_alpha;
  zero_alpha.alpha = 0;
  EXPECT_DEATH(AssadiSetCover{zero_alpha}, "alpha");
  AssadiConfig zero_eps;
  zero_eps.epsilon = 0.0;
  EXPECT_DEATH(AssadiSetCover{zero_eps}, "epsilon");
}

}  // namespace
}  // namespace streamsc
