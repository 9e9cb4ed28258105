#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/assadi_set_cover.h"
#include "core/demaine_set_cover.h"
#include "core/emek_rosen_set_cover.h"
#include "core/har_peled_set_cover.h"
#include "core/one_pass_set_cover.h"
#include "core/threshold_greedy.h"
#include "instance/generators.h"
#include "offline/exact_set_cover.h"
#include "offline/verifier.h"
#include "stream/set_stream.h"

namespace streamsc {
namespace {

// ---- Cross-algorithm invariants, swept over (algorithm, instance kind,
// ---- order, seed) with parameterized gtest. -------------------------------

enum class AlgoKind {
  kAssadi,
  kHarPeled,
  kDemaine,
  kEmekRosen,
  kThresholdGreedy,
  kOnePass
};
enum class InstanceKind { kPlanted, kUniform, kZipf, kNeedle };

std::unique_ptr<StreamingSetCoverAlgorithm> MakeAlgorithm(AlgoKind kind) {
  switch (kind) {
    case AlgoKind::kAssadi: {
      AssadiConfig config;
      config.alpha = 2;
      config.epsilon = 0.5;
      return std::make_unique<AssadiSetCover>(config);
    }
    case AlgoKind::kHarPeled: {
      HarPeledConfig config;
      config.alpha = 2;
      return std::make_unique<HarPeledSetCover>(config);
    }
    case AlgoKind::kDemaine: {
      DemaineConfig config;
      config.alpha = 4;
      return std::make_unique<DemaineSetCover>(config);
    }
    case AlgoKind::kEmekRosen:
      return std::make_unique<EmekRosenSetCover>();
    case AlgoKind::kThresholdGreedy:
      return std::make_unique<ThresholdGreedySetCover>();
    case AlgoKind::kOnePass:
      return std::make_unique<OnePassSetCover>();
  }
  return nullptr;
}

SetSystem MakeInstance(InstanceKind kind, std::uint64_t seed) {
  Rng rng(seed);
  switch (kind) {
    case InstanceKind::kPlanted:
      return PlantedCoverInstance(256, 24, 4, rng);
    case InstanceKind::kUniform:
      return UniformRandomInstance(192, 24, 36, rng);
    case InstanceKind::kZipf:
      return ZipfInstance(224, 28, 1.2, 100, rng);
    case InstanceKind::kNeedle:
      return NeedleInstance(160, 18, 3, rng);
  }
  return SetSystem(0);
}

using PropertyParam =
    std::tuple<AlgoKind, InstanceKind, StreamOrder, std::uint64_t>;

class StreamingCoverPropertyTest
    : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(StreamingCoverPropertyTest, SolutionsAreFeasibleAndAccounted) {
  const auto [algo_kind, instance_kind, order, seed] = GetParam();
  const SetSystem system = MakeInstance(instance_kind, seed);
  Rng order_rng(seed + 1);
  VectorSetStream stream(system, order,
                         order == StreamOrder::kAdversarial ? nullptr
                                                            : &order_rng);
  auto algorithm = MakeAlgorithm(algo_kind);
  const SetCoverRunResult result = algorithm->Run(stream);

  // P1: feasibility claims match reality.
  const CoverVerdict verdict = VerifyCover(system, result.solution);
  EXPECT_EQ(result.feasible, verdict.feasible) << algorithm->name();

  // P2: all solution ids are valid and distinct work (no duplicates).
  ArenaVector<SetId> ids = result.solution.chosen;
  for (SetId id : ids) EXPECT_LT(id, system.num_sets());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << algorithm->name() << " returned duplicate sets";

  // P3: accounting sanity.
  EXPECT_GE(stream.passes(), result.stats.passes);
  EXPECT_GT(result.stats.peak_space_bytes, 0u);

  // P4: solutions never exceed m sets.
  EXPECT_LE(result.solution.size(), system.num_sets());

  // P5: multi-pass algorithms are feasible on these (coverable) inputs.
  if (algo_kind != AlgoKind::kOnePass) {
    EXPECT_TRUE(result.feasible) << algorithm->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamingCoverPropertyTest,
    ::testing::Combine(
        ::testing::Values(AlgoKind::kAssadi, AlgoKind::kHarPeled,
                          AlgoKind::kDemaine, AlgoKind::kEmekRosen,
                          AlgoKind::kThresholdGreedy, AlgoKind::kOnePass),
        ::testing::Values(InstanceKind::kPlanted, InstanceKind::kUniform,
                          InstanceKind::kZipf, InstanceKind::kNeedle),
        ::testing::Values(StreamOrder::kAdversarial,
                          StreamOrder::kRandomOnce),
        ::testing::Values(11u, 29u)));

// ---- Exact-solver invariants over random instances. -----------------------

class ExactSolverPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactSolverPropertyTest, OptimalityAndMonotonicity) {
  Rng rng(1000 + GetParam());
  const SetSystem system = UniformRandomInstance(48, 10, 10, rng);
  const ExactSetCoverResult base = SolveExactSetCover(system);
  if (!base.feasible || !base.complete) GTEST_SKIP();

  // Adding a set never increases the optimum.
  SetSystem bigger = system;
  bigger.AddSet(rng.BernoulliSubset(48, 0.4));
  const ExactSetCoverResult grown = SolveExactSetCover(bigger);
  ASSERT_TRUE(grown.feasible && grown.complete);
  EXPECT_LE(grown.solution.size(), base.solution.size());

  // Restricting the universe never increases the optimum.
  const DynamicBitset smaller_universe = rng.BernoulliSubset(48, 0.6);
  const ExactSetCoverResult restricted =
      SolveExactSetCover(system, smaller_universe);
  if (restricted.feasible && restricted.complete) {
    EXPECT_LE(restricted.solution.size(), base.solution.size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ExactSolverPropertyTest,
                         ::testing::Range(0, 12));

// ---- Assadi guess-monotonicity: bigger guesses never hurt feasibility. ----

class GuessMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(GuessMonotonicityTest, LargerGuessStaysFeasible) {
  Rng rng(2000 + GetParam());
  const std::size_t opt = 3;
  const SetSystem system = PlantedCoverInstance(256, 24, opt, rng);
  AssadiConfig config;
  config.alpha = 2;
  config.epsilon = 0.5;
  config.seed = 3000 + GetParam();
  AssadiSetCover algorithm(config);
  bool seen_feasible = false;
  for (const std::size_t guess : {opt, opt * 2, opt * 4}) {
    VectorSetStream stream(system);
    Rng run_rng(config.seed + guess);
    const GuessResult result = algorithm.RunWithGuess(stream, guess, run_rng);
    if (result.feasible) seen_feasible = true;
    // Once a guess >= opt works, all larger guesses must also produce
    // feasible covers (budgets only grow).
    if (seen_feasible) {
      EXPECT_TRUE(result.feasible) << "guess=" << guess;
    }
  }
  EXPECT_TRUE(seen_feasible);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, GuessMonotonicityTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace streamsc
