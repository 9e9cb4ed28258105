#include <gtest/gtest.h>

#include <cmath>

#include "core/assadi_set_cover.h"
#include "instance/generators.h"
#include "instance/hard_max_coverage.h"
#include "instance/hard_set_cover.h"
#include "offline/exact_max_coverage.h"
#include "offline/exact_set_cover.h"
#include "stream/set_stream.h"
#include "util/math.h"

namespace streamsc {
namespace {

// One test per paper claim, at laptop scale, each named after the lemma or
// theorem it checks; the benches sweep the same claims over parameter
// grids.

// Lemma 2.2: a collection of k independent random (n-s)-subsets leaves at
// least (|U|/2)(s/2n)^k of U uncovered, w.h.p.
TEST(PaperClaims, Lemma22CoverageConcentration) {
  const std::size_t n = 4096, s = n / 4, k = 3;
  Rng rng(1);
  int holds = 0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    DynamicBitset covered(n);
    for (std::size_t i = 0; i < k; ++i) {
      covered |= rng.RandomSubsetOfSize(n, n - s);
    }
    const double uncovered =
        static_cast<double>(n) - static_cast<double>(covered.CountSet());
    const double bound = (static_cast<double>(n) / 2.0) *
                         std::pow(static_cast<double>(s) / (2.0 * n),
                                  static_cast<double>(k));
    if (uncovered >= bound) ++holds;
  }
  EXPECT_EQ(holds, trials);
}

// Lemma 3.2 / Remark 3.1: θ = 1 ⇒ opt = 2; θ = 0 ⇒ opt > 2α (w.h.p.).
TEST(PaperClaims, Lemma32OptGap) {
  // The θ = 0 branch needs the Lemma 3.2 regime n/t^α ≫ 1: with t ≈ 15
  // two pair-unions leave ≈ n/t² ≈ 18 doubly-missed elements in
  // expectation, so no 2α-cover exists w.h.p. (see
  // HardSetCoverTest.ThetaZeroOptExceedsTwoAlphaOnSmallInstances).
  HardSetCoverParams params;
  params.n = 4096;
  params.m = 8;
  params.alpha = 2.0;
  params.t_scale = 0.34;
  HardSetCoverDistribution dist(params);
  Rng rng(2);

  // θ = 1: opt is exactly 2 (planted pair feasible; no single set covers).
  const HardSetCoverInstance planted = dist.SampleThetaOne(rng);
  const SetSystem planted_system = planted.ToSetSystem();
  ExactSetCoverOptions options;
  options.size_limit = 2;
  const ExactSetCoverResult planted_result =
      SolveExactSetCover(planted_system, options);
  ASSERT_TRUE(planted_result.feasible);
  EXPECT_EQ(planted_result.solution.size(), 2u);

  // θ = 0: no cover of size 2α.
  int exceeded = 0;
  const int trials = 8;
  for (int trial = 0; trial < trials; ++trial) {
    const HardSetCoverInstance inst = dist.SampleThetaZero(rng);
    ExactSetCoverOptions decision;
    decision.size_limit = static_cast<std::size_t>(2 * params.alpha);
    const ExactSetCoverResult result =
        SolveExactSetCover(inst.ToSetSystem(), decision);
    if (result.complete && !result.feasible) ++exceeded;
  }
  EXPECT_GE(exceeded, trials - 1);
}

// Theorem 2: (2α+1) passes, (α+ε)-approximation, and the n^{1/α} space
// shape, measured on planted instances with known opt.
TEST(PaperClaims, Theorem2PassesApproximationSpace) {
  Rng rng(3);
  const std::size_t n = 4096, m = 64, opt = 4;
  const SetSystem system = PlantedCoverInstance(n, m, opt, rng);
  std::vector<double> space_over_prediction;
  for (const std::size_t alpha : {2, 3, 4}) {
    VectorSetStream stream(system);
    AssadiConfig config;
    config.alpha = alpha;
    config.epsilon = 0.5;
    AssadiSetCover algorithm(config);
    Rng run_rng(4);
    const GuessResult result = algorithm.RunWithGuess(stream, opt, run_rng);
    ASSERT_TRUE(result.feasible);
    // Pass budget 2α+1 (+1 cleanup allowance).
    EXPECT_LE(result.stats.passes, 2 * alpha + 2);
    // Approximation budget.
    EXPECT_LE(static_cast<double>(result.solution.size()),
              (static_cast<double>(alpha) + 0.5) * opt);
    // Space tracks m·n^{1/α}: the ratio to the prediction stays within a
    // broad constant band across α.
    const double prediction =
        static_cast<double>(m) * NthRoot(static_cast<double>(n),
                                         static_cast<double>(alpha)) *
            SafeLog(static_cast<double>(m)) +
        static_cast<double>(n);
    space_over_prediction.push_back(
        static_cast<double>(result.stats.peak_space_bytes) * 8.0 / prediction);
  }
  const double lo =
      *std::min_element(space_over_prediction.begin(),
                        space_over_prediction.end());
  const double hi =
      *std::max_element(space_over_prediction.begin(),
                        space_over_prediction.end());
  EXPECT_LT(hi / lo, 40.0);
}

// Lemma 4.3: opt_2 lands (1±Θ(ε)) around τ depending on θ.
TEST(PaperClaims, Lemma43MaxCoverageGap) {
  HardMaxCoverageParams params;
  params.epsilon = 0.2;
  params.m = 8;
  HardMaxCoverageDistribution dist(params);
  Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    const HardMaxCoverageInstance one = dist.SampleThetaOne(rng);
    const ExactMaxCoverageResult v_one =
        SolveExactMaxCoverage(one.ToSetSystem(), 2);
    EXPECT_GT(static_cast<double>(v_one.coverage), one.tau);

    const HardMaxCoverageInstance zero = dist.SampleThetaZero(rng);
    const ExactMaxCoverageResult v_zero =
        SolveExactMaxCoverage(zero.ToSetSystem(), 2);
    EXPECT_LT(static_cast<double>(v_zero.coverage), zero.tau);
  }
}

// Claim 3.3 direction: singleton-collections (no matched pair) leave a
// polynomial fraction of the universe uncovered under θ = 0.
TEST(PaperClaims, Claim33SingletonCollectionsLeaveResidue) {
  HardSetCoverParams params;
  params.n = 1024;
  params.m = 16;
  params.alpha = 2.0;
  params.t_scale = 1.0;
  HardSetCoverDistribution dist(params);
  Rng rng(6);
  const HardSetCoverInstance inst = dist.SampleThetaZero(rng);
  // Take 2α = 4 sets, one per index (a singleton-collection).
  DynamicBitset covered(params.n);
  for (std::size_t i = 0; i < 4; ++i) {
    covered |= inst.s_sets[i];
  }
  EXPECT_FALSE(covered.All());
  const double residue =
      static_cast<double>(params.n) - static_cast<double>(covered.CountSet());
  // Lemma 2.2-style bound: residue >= n/2 · (1/6)^4 ≈ n/2592 > 0.
  EXPECT_GE(residue, static_cast<double>(params.n) / 2592.0);
}

// Theorem 1 consequence (simulation direction): a p-pass s-space
// algorithm implies ~2p·s communication; verify the accounting identity
// on a real run.
TEST(PaperClaims, Theorem1SimulationAccounting) {
  Rng rng(7);
  const SetSystem system = PlantedCoverInstance(512, 32, 3, rng);
  VectorSetStream stream(system);
  AssadiConfig config;
  config.alpha = 2;
  config.epsilon = 0.5;
  config.known_opt = 3;
  AssadiSetCover algorithm(config);
  const SetCoverRunResult result = algorithm.Run(stream);
  ASSERT_TRUE(result.feasible);
  const double communication = 2.0 *
                               static_cast<double>(result.stats.passes) *
                               static_cast<double>(
                                   result.stats.peak_space_bytes) *
                               8.0;
  // The identity the lower bound leans on: communication >= p·s and both
  // are finite, positive, and consistent.
  EXPECT_GT(communication, 0.0);
  EXPECT_GE(communication,
            static_cast<double>(result.stats.passes) *
                static_cast<double>(result.stats.peak_space_bytes) * 8.0);
}

// Remark 1.1: the hard instances have constant-size optima (poly-time
// solvable offline) — hardness is purely a space phenomenon.
TEST(PaperClaims, Remark11HardInstancesAreOfflineEasy) {
  HardSetCoverParams params;
  params.n = 256;
  params.m = 8;
  params.alpha = 2.0;
  params.t_scale = 1.0;
  HardSetCoverDistribution dist(params);
  Rng rng(8);
  const HardSetCoverInstance inst = dist.SampleThetaOne(rng);
  const SetSystem system = inst.ToSetSystem();
  // The pair oracle solves it by scanning all O(m²) pairs.
  bool found = false;
  for (std::size_t i = 0; i < inst.m() && !found; ++i) {
    for (std::size_t j = 0; j < inst.m() && !found; ++j) {
      if ((inst.s_sets[i] | inst.t_sets[j]).All()) found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace streamsc
