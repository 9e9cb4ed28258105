// E15: what the per-run arena memory model buys — per-run p50/p99 latency
// and heap-allocation counts with the run arena off (heap fallback) vs on
// (warm MonotonicArena, reset per run), at 1 and 8 threads.
//
// Two workloads:
//
//   e7   the E7 planted-cover comparison instance (n=8192, m=128, opt=4):
//        mixed sparse/dense payloads, every registry solver;
//   e14  the E14 dense planted-blocks instance (n=1e5, opt=8, 24 decoys)
//        served from memory: the multi-pass regime where per-pass scratch
//        dominates, assadi + threshold_greedy.
//
// "arena=off" is today's heap-fallback path (RunContext.arena == nullptr;
// thread-local scratch/table arenas are unconditional and stay on), so
// the alloc column isolates exactly what routing *run-lived* state
// through the run arena eliminates. Allocation counts come from the same
// operator-new interposer the `alloc` ctest label uses
// (tests/testing/alloc_counter.cc, compiled into this binary); the
// reported count is the steady-state (last measured run) count, which the
// zero-alloc test pins at 0 for arena=on. Solutions are asserted
// byte-identical between the off/on rows.
//
// Usage: bench_e15_alloc [runs] [e14_n]
//   defaults: runs=20 e14_n=100000

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/solver_registry.h"
#include "bench_common.h"
#include "instance/generators.h"
#include "instance/set_system.h"
#include "stream/engine_context.h"
#include "stream/parallel_pass_engine.h"
#include "testing/alloc_counter.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

using namespace streamsc;

constexpr std::size_t kParallelThreads = 8;

struct Contender {
  std::string label;
  std::string solver;
  std::vector<std::string> options;
};

// The E14 shape: a partition into n/opt dense blocks plus random decoys.
SetSystem PlantedBlocks(std::size_t n, std::size_t opt, std::size_t decoys,
                        Rng& rng) {
  const std::size_t block = n / opt;
  SetSystem system(n);
  for (std::size_t lo = 0; lo < n; lo += block) {
    std::vector<ElementId> members;
    for (std::size_t e = lo; e < std::min(lo + block, n); ++e) {
      members.push_back(static_cast<ElementId>(e));
    }
    system.AddSetFromIndices(members);
  }
  for (std::size_t d = 0; d < decoys; ++d) {
    system.AddSetFromIndices(rng.RandomSubsetOfSize(n, block).ToIndices());
  }
  return system;
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[rank];
}

void MeasureWorkload(const std::string& workload, const SetSystem& system,
                     const std::vector<Contender>& contenders,
                     std::size_t runs, TablePrinter& table) {
  const std::unique_ptr<ParallelPassEngine> pool =
      MakeEngine(kParallelThreads);
  for (const Contender& contender : contenders) {
    for (const std::size_t threads : {std::size_t{1}, kParallelThreads}) {
      ArenaVector<SetId> heap_chosen;
      for (const bool arena_on : {false, true}) {
        StatusOr<std::unique_ptr<AnySolver>> solver =
            SolverRegistry::Global().Create(contender.solver,
                                            contender.options);
        STREAMSC_CHECK(solver.ok(), "registry rejected a contender");
        VectorSetStream stream(system);
        MonotonicArena arena;
        RunContext context;
        context.engine = threads == 1 ? nullptr : pool.get();
        context.arena = arena_on ? &arena : nullptr;

        SolveReport report;  // reused: report refills are capacity-only
        std::vector<double> latencies_ms;
        latencies_ms.reserve(runs);
        std::uint64_t steady_allocs = 0;
        std::uint64_t steady_bytes = 0;
        // Two warm-up runs (arena chunks, thread-local arenas, engine job
        // pool, report capacity), then `runs` measured runs.
        for (std::size_t run = 0; run < runs + 2; ++run) {
          arena.Reset();
          streamsc::testing::ArmAllocCounter();
          Stopwatch timer;
          const Status status = (*solver)->RunInto(stream, context, &report);
          const double ms = timer.ElapsedSeconds() * 1e3;
          const streamsc::testing::AllocCounterStats stats =
              streamsc::testing::DisarmAllocCounter();
          STREAMSC_CHECK(status.ok(), "contender run failed");
          if (run < 2) continue;
          latencies_ms.push_back(ms);
          steady_allocs = stats.allocations;
          steady_bytes = stats.bytes;
        }
        if (!arena_on) {
          heap_chosen = report.solution.chosen;
        } else {
          STREAMSC_CHECK(report.solution.chosen == heap_chosen,
                         "arena-on run diverged from the heap run");
        }

        table.BeginRow();
        table.AddCell(workload);
        table.AddCell(contender.label);
        table.AddCell(static_cast<std::uint64_t>(threads));
        table.AddCell(arena_on ? "on" : "off");
        table.AddCell(Percentile(latencies_ms, 0.50), 3);
        table.AddCell(Percentile(latencies_ms, 0.99), 3);
        table.AddCell(steady_allocs);
        table.AddCell(steady_bytes / 1024);
        table.AddCell(arena_on ? HumanBytes(arena.high_water())
                               : std::string("-"));
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamsc;
  const std::size_t runs =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20;
  const std::size_t e14_n =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 100'000;

  bench::Banner("E15: arena memory model",
                "steady-state solves are heap-allocation-free; the arena "
                "also flattens the latency tail");
  bench::Params("runs=" + std::to_string(runs) +
                " e14_n=" + std::to_string(e14_n) +
                " (allocs/run and kb/run are steady-state, after 2 "
                "warm-up runs)");

  TablePrinter table({"workload", "solver", "threads", "arena", "p50_ms",
                      "p99_ms", "allocs/run", "kb/run", "arena_hw"});
  {
    Rng rng(1);
    const SetSystem system = PlantedCoverInstance(8192, 128, 4, rng);
    const std::vector<Contender> contenders = {
        {"assadi", "assadi", {"alpha=2", "epsilon=0.5"}},
        {"har-peled", "har_peled", {"alpha=2"}},
        {"demaine", "demaine", {"alpha=4"}},
        {"emek-rosen", "emek_rosen", {}},
        {"one-pass", "one_pass", {}},
        {"threshold-greedy", "threshold_greedy", {}},
        {"sieve-mc", "sieve_mc", {"k=4"}},
        {"element-sampling-mc", "element_sampling_mc", {"k=3"}},
        {"pair-finder", "pair_finder", {"passes=4"}},
    };
    MeasureWorkload("e7", system, contenders, runs, table);
  }
  {
    Rng rng(2);
    const SetSystem system = PlantedBlocks(e14_n, 8, 24, rng);
    const std::vector<Contender> contenders = {
        {"assadi", "assadi", {"alpha=2", "epsilon=0.5", "known_opt=8"}},
        {"threshold-greedy", "threshold_greedy", {"beta=8"}},
    };
    MeasureWorkload("e14", system, contenders, runs, table);
  }
  table.Print(std::cout);
  std::cout << "\n# expect: allocs/run == 0 with arena=on for every row "
               "(the `alloc` ctest label enforces this) at latency parity; "
               "the arena's payoff is isolation — a multiplexing daemon "
               "stops paying the global allocator (and its locks) anything "
               "per request\n";
  return 0;
}
