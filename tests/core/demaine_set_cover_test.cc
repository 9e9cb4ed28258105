#include "core/demaine_set_cover.h"

#include <gtest/gtest.h>

#include "core/assadi_set_cover.h"
#include "instance/generators.h"
#include "offline/verifier.h"
#include "stream/set_stream.h"

namespace streamsc {
namespace {

TEST(DemaineSetCoverTest, CoversPlantedInstance) {
  Rng rng(1);
  const SetSystem system = PlantedCoverInstance(400, 40, 4, rng);
  VectorSetStream stream(system);
  DemaineConfig config;
  config.alpha = 4;
  DemaineSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(system.IsFeasibleCover(result.solution.chosen));
}

TEST(DemaineSetCoverTest, CoversAcrossGenerators) {
  Rng rng(2);
  std::vector<SetSystem> instances;
  instances.push_back(UniformRandomInstance(200, 25, 40, rng));
  instances.push_back(ZipfInstance(250, 30, 1.0, 120, rng));
  instances.push_back(NeedleInstance(150, 20, 3, rng));
  for (std::size_t i = 0; i < instances.size(); ++i) {
    VectorSetStream stream(instances[i]);
    DemaineConfig config;
    config.alpha = 4;
    DemaineSetCover algorithm(config);
    const SetCoverRunResult result = algorithm.Run(stream);
    ASSERT_TRUE(result.feasible) << "instance " << i;
    EXPECT_TRUE(VerifyCover(instances[i], result.solution).feasible);
  }
}

TEST(DemaineSetCoverTest, PassBudgetIsLinearInAlpha) {
  // O(alpha) phases x 2 passes + cleanup, per guess; with known_opt there
  // is exactly one guess.
  Rng rng(3);
  const SetSystem system = PlantedCoverInstance(512, 32, 4, rng);
  for (const std::size_t alpha : {2, 4, 8}) {
    VectorSetStream stream(system);
    DemaineConfig config;
    config.alpha = alpha;
    config.known_opt = 4;
    DemaineSetCover algorithm(config);
    const SetCoverRunResult result = algorithm.Run(stream);
    ASSERT_TRUE(result.feasible);
    EXPECT_LE(result.stats.passes, 2 * alpha + 1) << "alpha=" << alpha;
  }
}

TEST(DemaineSetCoverTest, SpaceExponentIsLogarithmicInAlpha) {
  DemaineConfig config;
  config.alpha = 4;
  EXPECT_NEAR(DemaineSetCover(config).SpaceExponent(), 1.0, 1e-9);
  config.alpha = 16;
  EXPECT_NEAR(DemaineSetCover(config).SpaceExponent(), 0.5, 1e-9);
  config.alpha = 256;
  EXPECT_NEAR(DemaineSetCover(config).SpaceExponent(), 0.25, 1e-9);
}

TEST(DemaineSetCoverTest, UsesMoreSpaceThanAssadiAtEqualAlpha) {
  // The paper's motivating comparison: at equal alpha, the DIMV'14 space
  // exponent Theta(1/log alpha) exceeds Algorithm 1's 1/alpha once
  // alpha > 4, so its stored samples (and hence space) are larger.
  // alpha = 16: exponent 0.5 vs 1/16.
  Rng rng(4);
  const std::size_t n = 16384, m = 64;
  const SetSystem system = PlantedCoverInstance(n, m, 16, rng);
  const std::size_t alpha = 16;

  VectorSetStream stream_d(system);
  DemaineConfig d_config;
  d_config.alpha = alpha;
  DemaineSetCover demaine(d_config);
  Rng rng_d(5);
  const GuessResult d_result = demaine.RunWithGuess(stream_d, 1, rng_d);

  VectorSetStream stream_a(system);
  AssadiConfig a_config;
  a_config.alpha = alpha;
  a_config.epsilon = 0.5;
  AssadiSetCover assadi(a_config);
  Rng rng_a(6);
  const GuessResult a_result = assadi.RunWithGuess(stream_a, 1, rng_a);

  EXPECT_GT(d_result.stats.peak_space_bytes, a_result.stats.peak_space_bytes);
}

TEST(DemaineSetCoverTest, DeterministicGivenSeed) {
  Rng rng(7);
  const SetSystem system = PlantedCoverInstance(300, 30, 3, rng);
  ArenaVector<SetId> first;
  for (int run = 0; run < 2; ++run) {
    VectorSetStream stream(system);
    DemaineConfig config;
    config.alpha = 4;
    config.seed = 11;
    DemaineSetCover algorithm(config);
    const SetCoverRunResult result = algorithm.Run(stream);
    ASSERT_TRUE(result.feasible);
    if (run == 0) {
      first = result.solution.chosen;
    } else {
      EXPECT_EQ(result.solution.chosen, first);
    }
  }
}

TEST(DemaineSetCoverTest, NameMentionsAlpha) {
  DemaineConfig config;
  config.alpha = 8;
  EXPECT_NE(DemaineSetCover(config).name().find("alpha=8"),
            std::string::npos);
}

TEST(DemaineSetCoverTest, RandomOrderStreamWorks) {
  Rng rng(8);
  const SetSystem system = PlantedCoverInstance(300, 30, 3, rng);
  Rng order_rng(9);
  VectorSetStream stream(system, StreamOrder::kRandomOnce, &order_rng);
  DemaineConfig config;
  config.alpha = 4;
  DemaineSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
}

TEST(DemaineSetCoverTest, SingleFullSetInstance) {
  SetSystem system(64);
  system.AddSet(DynamicBitset::Full(64));
  VectorSetStream stream(system);
  DemaineConfig config;
  config.alpha = 2;
  DemaineSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.solution.size(), 1u);
}

TEST(DemaineDeathTest, RejectsAlphaBelowTwo) {
  DemaineConfig config;
  config.alpha = 1;
  EXPECT_DEATH(DemaineSetCover{config}, "alpha");
}

}  // namespace
}  // namespace streamsc
