// The cross-algorithm conformance matrix (see testing/solver_matrix.h):
// every streaming solver must produce byte-identical solutions, covers,
// and deterministic stats across {VectorSetStream, MmapSetStream} x
// {no engine, 1, 2, 8 threads}. Since the unified-API
// redesign the matrix is driven through the public front door: each cell
// constructs its solver from the string-keyed SolverRegistry, and every
// solver additionally runs through the owning SolveSession (source
// sniffing + engine lifetime via `threads=`) from both on-disk formats —
// so the conformance proof covers exactly the construction path external
// callers use, not a parallel hand-wired one.

#include <gtest/gtest.h>

#include "api/solver_registry.h"
#include "instance/generators.h"
#include "stream/engine_context.h"
#include "testing/solver_matrix.h"
#include "util/random.h"

namespace streamsc {
namespace {

using testing::RegistrySolverFn;
using testing::RunConformanceMatrix;
using testing::SolverOutcome;

// A mixed-density instance: sparse planted blocks plus a dense
// every-other-element set, so the matrix exercises both payload
// representations on every source (text files always stream dense; the
// hybrid and mmap stores sparsify below the density threshold).
SetSystem MatrixInstance(std::size_t n, std::size_t m, std::size_t opt,
                         std::uint64_t seed) {
  Rng rng(seed);
  SetSystem system = PlantedCoverInstance(n, m, opt, rng);
  std::vector<ElementId> half;
  for (ElementId e = 0; e < n; e += 2) half.push_back(e);
  system.AddSetFromIndices(half);
  return system;
}

// An instance whose optimum is a planted *pair*, for the exact pair
// finder: two sets split the universe; decoys miss at least one element.
SetSystem PairInstance(std::size_t n, std::size_t decoys,
                       std::uint64_t seed) {
  Rng rng(seed);
  SetSystem system(n);
  std::vector<ElementId> low, high;
  for (ElementId e = 0; e < n; ++e) {
    (e < n / 2 ? low : high).push_back(e);
  }
  system.AddSetFromIndices(low);
  system.AddSetFromIndices(high);
  for (std::size_t d = 0; d < decoys; ++d) {
    std::vector<ElementId> members;
    for (ElementId e = 1; e < n; ++e) {  // every decoy misses element 0
      if (rng.Bernoulli(0.4)) members.push_back(e);
    }
    system.AddSetFromIndices(members);
  }
  return system;
}

TEST(SolverMatrixTest, Assadi) {
  RunConformanceMatrix(MatrixInstance(320, 28, 4, 7), "assadi",
                       {"alpha=2", "epsilon=0.5", "seed=11"});
}

TEST(SolverMatrixTest, HarPeled) {
  RunConformanceMatrix(MatrixInstance(320, 28, 4, 8), "har_peled",
                       {"alpha=2", "seed=13"});
}

TEST(SolverMatrixTest, Demaine) {
  RunConformanceMatrix(MatrixInstance(320, 28, 4, 9), "demaine",
                       {"alpha=4", "seed=17"});
}

TEST(SolverMatrixTest, EmekRosen) {
  RunConformanceMatrix(MatrixInstance(320, 28, 4, 10), "emek_rosen", {});
}

TEST(SolverMatrixTest, OnePass) {
  RunConformanceMatrix(MatrixInstance(320, 28, 4, 11), "one_pass",
                       {"min_gain_fraction=0.05"});
}

TEST(SolverMatrixTest, ThresholdGreedy) {
  RunConformanceMatrix(MatrixInstance(320, 28, 4, 12), "threshold_greedy",
                       {});
}

TEST(SolverMatrixTest, ElementSamplingMaxCoverage) {
  RunConformanceMatrix(MatrixInstance(320, 28, 4, 13), "element_sampling_mc",
                       {"seed=19", "k=3"});
}

TEST(SolverMatrixTest, SieveMaxCoverage) {
  RunConformanceMatrix(MatrixInstance(320, 28, 4, 14), "sieve_mc", {"k=3"});
}

TEST(SolverMatrixTest, ExactPairFinder) {
  RunConformanceMatrix(PairInstance(256, 20, 15), "pair_finder",
                       {"passes=4"});
}

// The matrix must also hold when the solver's stream order is a fixed
// random permutation (the paper's random-arrival model): VectorSetStream
// cells use kRandomOnce here, so this variant runs memory-only across
// thread counts (file/mmap sources always stream in id order). Still
// registry-constructed: the custom piece is the stream, not the solver.
TEST(SolverMatrixTest, ThresholdGreedyRandomArrivalAcrossThreads) {
  const SetSystem system = MatrixInstance(320, 28, 4, 16);
  const testing::SolverFn solve_fn =
      RegistrySolverFn("threshold_greedy", {});

  const auto solve = [&](ParallelPassEngine* engine) {
    Rng order_rng(99);
    VectorSetStream stream(system, StreamOrder::kRandomOnce, &order_rng);
    return solve_fn(stream, engine);
  };

  const SolverOutcome baseline = solve(nullptr);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelPassEngine engine(threads);
    const SolverOutcome outcome = solve(&engine);
    EXPECT_EQ(outcome.chosen, baseline.chosen);
    EXPECT_EQ(outcome.passes, baseline.passes);
    EXPECT_EQ(outcome.sets_taken, baseline.sets_taken);
    EXPECT_EQ(outcome.elements_covered, baseline.elements_covered);
  }
}

}  // namespace
}  // namespace streamsc
