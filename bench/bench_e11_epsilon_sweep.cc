// E11 — Theorem 2's ε-dependence: the one-shot pruning threshold
// n/(ε·õpt) lets at most ε·õpt sets through, the stored projections grow
// as 1/ε, and the guess driver multiplies passes by O(log n / ε). Sweeps
// ε at fixed (n, m, α).

#include <iostream>

#include "bench_common.h"
#include "core/assadi_set_cover.h"
#include "instance/generators.h"
#include "stream/set_stream.h"
#include "util/table_printer.h"

namespace streamsc {
namespace {

void EpsSweepSingleGuess() {
  bench::Banner("E11a: eps sweep (single guess, known opt)",
                "solution <= (alpha+eps)*opt; pruned sets <= eps*opt  "
                "[Lemma 3.10]");
  const std::size_t n = 8192, m = 128, opt = 4, alpha = 3;
  bench::Params("n=8192 m=128 opt=4 alpha=3 planted-cover");
  Rng gen(1);
  const SetSystem system = PlantedCoverInstance(n, m, opt, gen);
  TablePrinter table({"eps", "sets", "budget_(a+e)opt", "within", "passes",
                      "space_bits"});
  for (const double eps : {2.0, 1.0, 0.5, 0.25, 0.125}) {
    VectorSetStream stream(system);
    AssadiConfig config;
    config.alpha = alpha;
    config.epsilon = eps;
    AssadiSetCover algorithm(config);
    Rng run_rng(static_cast<std::uint64_t>(eps * 100) + 3);
    const GuessResult result = algorithm.RunWithGuess(stream, opt, run_rng);
    const double budget = (static_cast<double>(alpha) + eps) * opt;
    table.BeginRow();
    table.AddCell(eps, 3);
    table.AddCell(static_cast<std::uint64_t>(result.solution.size()));
    table.AddCell(budget, 1);
    table.AddCell(result.within_budget ? "yes" : "NO");
    table.AddCell(result.stats.passes);
    table.AddCell(static_cast<double>(result.stats.peak_space_bytes) * 8, 0);
  }
  table.Print(std::cout);
  std::cout << "# expect: solutions within budget at every eps; space "
               "roughly flat (eps enters via pruning, not sampling, in "
               "the single-guess core)\n";
}

void EpsSweepFullDriver() {
  bench::Banner("E11b: eps sweep (full guessing driver)",
                "passes multiply by the O(log n / eps) guess count  "
                "[Theorem 2 proof]");
  const std::size_t n = 4096, m = 64, opt = 4, alpha = 2;
  bench::Params("n=4096 m=64 opt=4 alpha=2 planted-cover");
  Rng gen(2);
  const SetSystem system = PlantedCoverInstance(n, m, opt, gen);
  TablePrinter table({"eps", "feasible", "sets", "ratio", "total_passes"});
  for (const double eps : {1.0, 0.5, 0.25}) {
    VectorSetStream stream(system);
    AssadiConfig config;
    config.alpha = alpha;
    config.epsilon = eps;
    AssadiSetCover algorithm(config);
    const SetCoverRunResult result = algorithm.Run(stream);
    table.BeginRow();
    table.AddCell(eps, 3);
    table.AddCell(result.feasible ? "yes" : "NO");
    table.AddCell(static_cast<std::uint64_t>(result.solution.size()));
    table.AddCell(static_cast<double>(result.solution.size()) / opt, 2);
    table.AddCell(result.stats.passes);
  }
  table.Print(std::cout);
  std::cout << "# expect: smaller eps -> finer guess grid -> more total "
               "passes, slightly better ratios\n";
}

}  // namespace
}  // namespace streamsc

int main() {
  streamsc::EpsSweepSingleGuess();
  streamsc::EpsSweepFullDriver();
  return 0;
}
