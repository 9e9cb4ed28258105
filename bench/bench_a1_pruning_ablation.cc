// A1 — Pruning ablation. Algorithm 1's first refinement over Har-Peled et
// al. is *one-shot* pruning (a single absolute threshold n/(ε·õpt) before
// the iterations) in place of *iterative* pruning (a relative threshold
// |U|/(2·õpt) inside every iteration). This bench isolates the two
// policies on instance families with different largest-set profiles and
// reports how many sets each policy takes, the pass cost, and the quality
// of what remains for the sampling stage.
//
// The instances:
//   block-heavy  — planted covers: the optimum consists of big sets, the
//                  regime pruning is designed for;
//   flat         — uniform sets far below every pruning threshold: pruning
//                  should be a no-op and all work falls to sampling;
//   mixed        — a planted core plus a uniform tail: one-shot pruning
//                  takes the core in one pass, iterative pruning re-scans.

#include <iostream>

#include "bench_common.h"
#include "core/assadi_set_cover.h"
#include "core/har_peled_set_cover.h"
#include "instance/generators.h"
#include "offline/greedy.h"
#include "stream/set_stream.h"
#include "util/table_printer.h"

namespace streamsc {
namespace {

SetSystem MixedInstance(std::size_t n, Rng& rng) {
  // A 4-block planted core covering [0, n/2) plus 48 uniform tail sets of
  // size n/40 over the full universe plus one patch for feasibility.
  SetSystem system(n);
  const std::size_t half = n / 2;
  for (std::size_t b = 0; b < 4; ++b) {
    DynamicBitset block(n);
    for (std::size_t e = b; e < half; e += 4) block.Set(e);
    system.AddSet(std::move(block));
  }
  for (int i = 0; i < 48; ++i) {
    system.AddSet(rng.RandomSubsetOfSize(n, n / 40));
  }
  DynamicBitset patch = system.UnionAll();
  patch.Complement();
  system.AddSet(std::move(patch));
  return system;
}

void RunFamily(const std::string& family, const SetSystem& system,
               std::size_t opt_guess, TablePrinter& table) {
  // One-shot (Assadi) vs iterative (Har-Peled) at alpha = 3.
  {
    VectorSetStream stream(system);
    AssadiConfig config;
    config.alpha = 3;
    config.epsilon = 0.5;
    AssadiSetCover algorithm(config);
    Rng rng(11);
    const GuessResult result = algorithm.RunWithGuess(stream, opt_guess, rng);
    table.BeginRow();
    table.AddCell(family);
    table.AddCell("one-shot (Assadi)");
    table.AddCell(result.stats.passes);
    table.AddCell(static_cast<double>(result.stats.peak_space_bytes) * 8.0, 0);
    table.AddCell(static_cast<std::uint64_t>(result.solution.size()));
    table.AddCell(result.feasible ? "yes" : "NO");
  }
  {
    VectorSetStream stream(system);
    HarPeledConfig config;
    config.alpha = 3;
    HarPeledSetCover algorithm(config);
    Rng rng(12);
    const GuessResult result = algorithm.RunWithGuess(stream, opt_guess, rng);
    table.BeginRow();
    table.AddCell(family);
    table.AddCell("iterative (Har-Peled)");
    table.AddCell(result.stats.passes);
    table.AddCell(static_cast<double>(result.stats.peak_space_bytes) * 8.0, 0);
    table.AddCell(static_cast<std::uint64_t>(result.solution.size()));
    table.AddCell(result.feasible ? "yes" : "NO");
  }
}

void PruningAblation() {
  bench::Banner("A1: one-shot vs iterative pruning",
                "one-shot pruning pays one pass regardless of alpha; "
                "iterative pruning re-scans every iteration  [Sec 3.4]");
  bench::Params("alpha=3 eps=0.5; opt_guess calibrated per family");
  TablePrinter table({"family", "pruning", "passes", "space_bits", "sets",
                      "feasible"});
  {
    Rng rng(1);
    const SetSystem system = PlantedCoverInstance(8192, 96, 4, rng);
    RunFamily("block-heavy", system, 4, table);
  }
  {
    Rng rng(2);
    const SetSystem system = UniformRandomInstance(4096, 96, 160, rng);
    const std::size_t opt_guess = GreedySetCover(system).size();
    RunFamily("flat", system, opt_guess, table);
  }
  {
    Rng rng(3);
    const SetSystem system = MixedInstance(8192, rng);
    const std::size_t opt_guess = GreedySetCover(system).size();
    RunFamily("mixed", system, opt_guess, table);
  }
  table.Print(std::cout);
  std::cout
      << "# expect: on block-heavy the *relative* iterative threshold "
         "|U|/(2*opt) takes the whole optimum in one pass and wins outright "
         "— the regime pruning exists for; the one-shot absolute threshold "
         "n/(eps*opt) is stricter, so Assadi pays the sampling stage there. "
         "On flat/mixed instances the pass counts equalize, and the "
         "relative threshold keeps absorbing medium sets that the absolute "
         "threshold leaves to the (space-charged) sampling stage. "
         "One-shot's guarantee is about the *worst case*: it bounds "
         "pruning to one pass and <= eps*opt picked sets on every "
         "instance, instead of per-iteration rescans whose pick count "
         "relative pruning does not cap — see the E1/E7 space tables for "
         "where the sharper sampling exponent then pays off\n";
}

}  // namespace
}  // namespace streamsc

int main() {
  streamsc::PruningAblation();
  return 0;
}
