#include <gtest/gtest.h>

#include <memory>

#include "comm/reductions.h"
#include "core/assadi_set_cover.h"
#include "core/demaine_set_cover.h"
#include "core/emek_rosen_set_cover.h"
#include "core/har_peled_set_cover.h"
#include "core/max_coverage.h"
#include "core/one_pass_set_cover.h"
#include "core/threshold_greedy.h"
#include "instance/generators.h"
#include "instance/hard_set_cover.h"
#include "offline/exact_set_cover.h"
#include "offline/lower_bounds.h"
#include "offline/verifier.h"
#include "stream/set_stream.h"

namespace streamsc {
namespace {

// Full pipeline: generate -> stream -> solve -> verify, across every
// streaming set cover algorithm in the library.
TEST(EndToEndTest, AllAlgorithmsCoverAllGenerators) {
  Rng rng(1);
  std::vector<SetSystem> instances;
  instances.push_back(PlantedCoverInstance(300, 30, 4, rng));
  instances.push_back(UniformRandomInstance(200, 25, 40, rng));
  instances.push_back(ZipfInstance(250, 30, 1.0, 120, rng));
  instances.push_back(BlogTopicInstance(200, 30, 0.15, rng));
  instances.push_back(NeedleInstance(150, 20, 3, rng));

  std::vector<std::unique_ptr<StreamingSetCoverAlgorithm>> algorithms;
  {
    AssadiConfig config;
    config.alpha = 2;
    config.epsilon = 0.5;
    algorithms.push_back(std::make_unique<AssadiSetCover>(config));
  }
  {
    HarPeledConfig config;
    config.alpha = 2;
    algorithms.push_back(std::make_unique<HarPeledSetCover>(config));
  }
  {
    DemaineConfig config;
    config.alpha = 4;
    algorithms.push_back(std::make_unique<DemaineSetCover>(config));
  }
  algorithms.push_back(std::make_unique<EmekRosenSetCover>());
  algorithms.push_back(std::make_unique<ThresholdGreedySetCover>());
  algorithms.push_back(std::make_unique<OnePassSetCover>());

  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (auto& algorithm : algorithms) {
      VectorSetStream stream(instances[i]);
      const SetCoverRunResult result = algorithm->Run(stream);
      ASSERT_TRUE(result.feasible)
          << algorithm->name() << " failed on instance " << i;
      const CoverVerdict verdict =
          VerifyCover(instances[i], result.solution);
      EXPECT_TRUE(verdict.feasible)
          << algorithm->name() << " reported an infeasible cover";
      EXPECT_GE(result.stats.passes, 1u);
      EXPECT_GT(result.stats.peak_space_bytes, 0u);
    }
  }
}

TEST(EndToEndTest, ApproximationOrderingOnPlantedInstances) {
  // On planted instances: exact <= assadi <= threshold-greedy (typically),
  // and everything within its guarantee.
  Rng rng(2);
  const std::size_t opt = 5;
  const SetSystem system = PlantedCoverInstance(500, 50, opt, rng);
  const ExactSetCoverResult exact = SolveExactSetCover(system);
  ASSERT_TRUE(exact.feasible && exact.complete);
  ASSERT_EQ(exact.solution.size(), opt);

  AssadiConfig config;
  config.alpha = 2;
  config.epsilon = 0.5;
  config.known_opt = opt;
  AssadiSetCover assadi(config);
  VectorSetStream stream(system);
  const SetCoverRunResult result = assadi.Run(stream);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.solution.size(), opt);
  EXPECT_LE(static_cast<double>(result.solution.size()), 2.5 * opt);
}

TEST(EndToEndTest, HardInstanceThroughFullStack) {
  // D_SC instance -> random partition -> streaming protocol -> reduction:
  // the entire lower-bound machinery glued together. Gap-regime t (see
  // Lemma32OptGap) and the (α+ε)-aware Yes cutoff.
  HardSetCoverParams params;
  params.n = 4096;
  params.m = 6;
  params.alpha = 2.0;
  params.t_scale = 0.34;
  const double epsilon = 0.4;
  StreamingSetCoverValueProtocol backend(
      [epsilon]() -> std::unique_ptr<StreamingSetCoverAlgorithm> {
        AssadiConfig config;
        config.alpha = 2;
        config.epsilon = epsilon;
        return std::make_unique<AssadiSetCover>(config);
      },
      /*shuffle_stream=*/true);
  DisjFromSetCoverProtocol reduction(params, &backend,
                                     2.0 * (params.alpha + epsilon));
  DisjDistribution dist(reduction.DisjT());
  Rng rng(3);
  const ProtocolEvaluation eval =
      EvaluateDisjProtocol(reduction, dist, 30, rng);
  EXPECT_LT(eval.error_rate, 0.4);  // clearly better than coin flip
  EXPECT_GT(eval.mean_bits, 0.0);
}

TEST(EndToEndTest, MaxCoverageSketchVsExactOnBlogWorkload) {
  Rng rng(4);
  const SetSystem system = BlogTopicInstance(300, 40, 0.1, rng);
  const std::size_t k = 3;
  ElementSamplingMcConfig config;
  config.epsilon = 0.15;
  ElementSamplingMaxCoverage sketch(config);
  VectorSetStream stream(system);
  const MaxCoverageRunResult result = sketch.Run(stream, k);
  EXPECT_LE(result.solution.size(), k);
  // Sanity: covers a sizable fraction of the topics a greedy would.
  EXPECT_GT(result.coverage, 0u);
}

TEST(EndToEndTest, CertifiedRatioViaLowerBounds) {
  // Exact-solver-free certification: on a planted partition instance the
  // counting lower bound is exactly opt (max set size = n/opt), so
  // solution / BestLowerBound is a *certified* approximation ratio.
  Rng rng(7);
  const std::size_t opt = 4;
  const SetSystem system = PlantedCoverInstance(1024, 48, opt, rng);
  EXPECT_EQ(BestLowerBound(system), opt);

  AssadiConfig config;
  config.alpha = 2;
  config.epsilon = 0.5;
  AssadiSetCover algorithm(config);
  VectorSetStream stream(system);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  const double certified_ratio =
      static_cast<double>(result.solution.size()) /
      static_cast<double>(BestLowerBound(system));
  // (alpha+eps) plus the driver's (1+eps) guessing slack.
  EXPECT_LE(certified_ratio, 2.5 * 1.5);
}

TEST(EndToEndTest, RandomOrderMatchesAdversarialFeasibility) {
  Rng rng(5);
  const SetSystem system = PlantedCoverInstance(400, 40, 4, rng);
  for (const StreamOrder order :
       {StreamOrder::kAdversarial, StreamOrder::kRandomOnce}) {
    Rng order_rng(6);
    VectorSetStream stream(system, order, &order_rng);
    AssadiConfig config;
    config.alpha = 2;
    config.epsilon = 0.5;
    AssadiSetCover algorithm(config);
    const SetCoverRunResult result = algorithm.Run(stream);
    EXPECT_TRUE(result.feasible);
  }
}

}  // namespace
}  // namespace streamsc
