// The zero-allocation steady-state proof for the per-run arena memory
// model: after one warm-up run, re-running any registry solver over the
// same session-shaped resources (reset run arena, warm thread-local
// scratch/table arenas, reused SolveReport) performs **zero** heap
// allocations — with no engine and on an 8-thread pool, and with a
// TraceRecorder armed or not: tracing-off is a single branch per hook,
// tracing-on allocates only at arm time (ring preallocation) and every
// Emit writes in place.
//
// testing/alloc_counter.cc is compiled into this binary, replacing the
// global operator new/delete with counting forwarders, so allocations on
// every thread (workers included) are visible while armed.
//
// Sequentially the run is deterministic, so the assertion is strict: the
// second run must allocate nothing. With a worker pool, index claiming is
// dynamic — which worker's scratch/table arena serves an item varies run
// to run, so per-worker chunk capacities warm toward their
// schedule-independent maximum over a few runs instead of exactly one.
// Capacities only grow and are bounded, so the allocation count converges
// to zero; the test asserts it reaches zero within a small bounded number
// of runs. The engine itself needs no warm-up: it reuses one job for
// every ParallelFor, so it allocates nothing from its first job on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/solver_registry.h"
#include "instance/generators.h"
#include "obs/trace.h"
#include "stream/parallel_pass_engine.h"
#include "testing/alloc_counter.h"
#include "util/arena.h"
#include "util/random.h"

namespace streamsc {
namespace {

// Same mixed-density shape as the conformance matrix: sparse planted
// blocks plus a dense every-other-element set, so the steady state covers
// both payload representations.
SetSystem Instance(std::size_t n, std::size_t m, std::size_t opt,
                   std::uint64_t seed) {
  Rng rng(seed);
  SetSystem system = PlantedCoverInstance(n, m, opt, rng);
  std::vector<ElementId> half;
  for (ElementId e = 0; e < n; e += 2) half.push_back(e);
  system.AddSetFromIndices(half);
  return system;
}

// A planted-pair instance for the exact pair finder.
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
    for (ElementId e = 1; e < n; ++e) {
      if (rng.Bernoulli(0.4)) members.push_back(e);
    }
    system.AddSetFromIndices(members);
  }
  return system;
}

void ExpectZeroAllocSteadyState(const SetSystem& system,
                                const std::string& solver_key,
                                const std::vector<std::string>& options,
                                std::size_t threads, bool traced) {
  SCOPED_TRACE(solver_key + " threads=" + std::to_string(threads) +
               (traced ? " traced" : ""));

  StatusOr<std::unique_ptr<AnySolver>> created =
      SolverRegistry::Global().Create(solver_key, options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  AnySolver& any = **created;

  std::unique_ptr<ParallelPassEngine> engine;
  if (threads > 1) engine = std::make_unique<ParallelPassEngine>(threads);

  // Tracing-on allocates only at arm time (recorder construction, here,
  // outside the armed window); every Emit during the runs below writes
  // into the preallocated rings and must count zero.
  std::unique_ptr<TraceRecorder> recorder;
  if (traced) recorder = std::make_unique<TraceRecorder>();

  VectorSetStream stream(system);
  MonotonicArena arena;
  RunContext context;
  context.engine = engine.get();
  context.arena = &arena;
  context.trace = recorder.get();

  // Reused across runs: strings and the solution vector reach their
  // steady-state capacity during warm-up.
  SolveReport report;

  // Run 0 is the warm-up; sequentially run 1 must already be clean, with
  // workers the count must hit zero within the convergence budget.
  const int max_runs = threads > 1 ? 12 : 2;
  std::uint64_t steady_allocations = ~std::uint64_t{0};
  std::uint64_t steady_bytes = 0;
  ArenaVector<SetId> first_chosen;
  for (int run = 0; run < max_runs; ++run) {
    arena.Reset();
    testing::ArmAllocCounter();
    const Status status = any.RunInto(stream, context, &report);
    const testing::AllocCounterStats stats = testing::DisarmAllocCounter();
    ASSERT_TRUE(status.ok()) << status.message();
    if (run == 0) {
      first_chosen = report.solution.chosen;
      continue;
    }
    // Warm or cold, reruns stay deterministic.
    EXPECT_EQ(report.solution.chosen, first_chosen) << "rerun diverged";
    steady_allocations = stats.allocations;
    steady_bytes = stats.bytes;
    if (steady_allocations == 0) break;
  }
  EXPECT_EQ(steady_allocations, 0u)
      << "solver '" << solver_key << "' still allocated " << steady_bytes
      << " heap bytes per run after warm-up"
      << (traced ? " with tracing armed" : "");
  if (traced) {
    EXPECT_GT(recorder->events_recorded(), 0u)
        << "traced runs must actually record spans";
  }
}

void ExpectZeroAllocBothWidths(const SetSystem& system,
                               const std::string& solver_key,
                               const std::vector<std::string>& options) {
  for (const bool traced : {false, true}) {
    ExpectZeroAllocSteadyState(system, solver_key, options, 1, traced);
    ExpectZeroAllocSteadyState(system, solver_key, options, 8, traced);
  }
}

// The interposer must actually be linked and armed — otherwise every
// zero-allocation assertion below would pass vacuously.
TEST(ZeroAllocTest, CounterSeesHeapTraffic) {
  testing::ArmAllocCounter();
  std::vector<std::uint64_t>* v = new std::vector<std::uint64_t>(1024);
  delete v;
  const testing::AllocCounterStats stats = testing::DisarmAllocCounter();
  // At least the 8 KiB element buffer must be observed (the compiler may
  // elide the vector object's own new/delete pair, but not the buffer).
  EXPECT_GE(stats.allocations, 1u);
  EXPECT_GE(stats.deallocations, 1u);
  EXPECT_GE(stats.bytes, 1024 * sizeof(std::uint64_t));
}

TEST(ZeroAllocTest, EngineParallelForAllocatesNothingFromTheFirstJob) {
  ParallelPassEngine engine(8);
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  testing::ArmAllocCounter();
  for (std::size_t job = 0; job < 200; ++job) {
    const std::size_t count = 1 + (job * 37) % 300;
    engine.ParallelFor(count, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    expected += count * (count - 1) / 2;
  }
  const testing::AllocCounterStats stats = testing::DisarmAllocCounter();
  EXPECT_EQ(sum.load(), expected);
  EXPECT_EQ(stats.allocations, 0u)
      << "the engine allocated " << stats.bytes << " heap bytes";
}

TEST(ZeroAllocTest, Assadi) {
  ExpectZeroAllocBothWidths(Instance(320, 28, 4, 7), "assadi",
                            {"alpha=2", "epsilon=0.5", "seed=11"});
}

TEST(ZeroAllocTest, HarPeled) {
  ExpectZeroAllocBothWidths(Instance(320, 28, 4, 8), "har_peled",
                            {"alpha=2", "seed=13"});
}

TEST(ZeroAllocTest, Demaine) {
  ExpectZeroAllocBothWidths(Instance(320, 28, 4, 9), "demaine",
                            {"alpha=4", "seed=17"});
}

TEST(ZeroAllocTest, EmekRosen) {
  ExpectZeroAllocBothWidths(Instance(320, 28, 4, 10), "emek_rosen", {});
}

TEST(ZeroAllocTest, OnePass) {
  ExpectZeroAllocBothWidths(Instance(320, 28, 4, 11), "one_pass",
                            {"min_gain_fraction=0.05"});
}

TEST(ZeroAllocTest, ThresholdGreedy) {
  ExpectZeroAllocBothWidths(Instance(320, 28, 4, 12), "threshold_greedy", {});
}

TEST(ZeroAllocTest, ElementSamplingMaxCoverage) {
  ExpectZeroAllocBothWidths(Instance(320, 28, 4, 13), "element_sampling_mc",
                            {"seed=19", "k=3"});
}

TEST(ZeroAllocTest, SieveMaxCoverage) {
  ExpectZeroAllocBothWidths(Instance(320, 28, 4, 14), "sieve_mc", {"k=3"});
}

TEST(ZeroAllocTest, ExactPairFinder) {
  ExpectZeroAllocBothWidths(PairInstance(256, 20, 15), "pair_finder",
                            {"passes=4"});
}

}  // namespace
}  // namespace streamsc
