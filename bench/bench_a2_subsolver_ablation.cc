// A2 — Sub-solver ablation. Algorithm 1 step 3(c) requires an *optimal*
// cover of the stored sub-instance; the streaming model permits this
// because computation is free and only space is charged. This bench flips
// the sub-solver to plain greedy and measures what optimality buys:
// (a) guess acceptance — with the exact solver, a guess õpt < opt is
// *proven* infeasible and rejected; greedy cannot prove anything and the
// driver must over-shoot; (b) solution size on needle instances where
// greedy famously picks the big deceptive set.

#include <iostream>

#include "bench_common.h"
#include "core/assadi_set_cover.h"
#include "instance/generators.h"
#include "offline/exact_set_cover.h"
#include "stream/set_stream.h"
#include "util/table_printer.h"

namespace streamsc {
namespace {

AssadiConfig MakeConfig(bool exact) {
  AssadiConfig config;
  config.alpha = 2;
  config.epsilon = 0.5;
  config.use_exact_subsolver = exact;
  config.seed = 9;
  return config;
}

void SolutionQuality() {
  bench::Banner("A2a: exact vs greedy sub-solver, solution size",
                "the optimal sub-solve keeps the per-iteration pick at "
                "õpt sets; greedy can lose a ln factor  [Alg. 1 step 3c]");
  bench::Params("alpha=2 eps=0.5; needle + planted instances, 8 trials");
  TablePrinter table({"instance", "subsolver", "mean_sets", "mean_ratio",
                      "feasible"});
  struct Family {
    std::string name;
    std::size_t opt;
  };
  for (const Family& family :
       {Family{"needles(n=2048,m=64,k=6)", 6},
        Family{"planted(n=2048,m=64,opt=6)", 6}}) {
    for (const bool exact : {true, false}) {
      double sets_sum = 0.0;
      int feasible = 0;
      const int trials = 8;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(100 * trial + 7);
        const SetSystem system =
            family.name[0] == 'n'
                ? NeedleInstance(2048, 64, family.opt, rng)
                : PlantedCoverInstance(2048, 64, family.opt, rng);
        VectorSetStream stream(system);
        AssadiSetCover algorithm(MakeConfig(exact));
        const SetCoverRunResult result = algorithm.Run(stream);
        if (result.feasible) ++feasible;
        sets_sum += static_cast<double>(result.solution.size());
      }
      table.BeginRow();
      table.AddCell(family.name);
      table.AddCell(exact ? "exact" : "greedy");
      table.AddCell(sets_sum / trials, 2);
      table.AddCell(sets_sum / trials / static_cast<double>(family.opt), 2);
      table.AddCell(std::to_string(feasible) + "/" + std::to_string(trials));
    }
  }
  table.Print(std::cout);
  std::cout << "# expect: exact <= greedy mean sets on both families, with "
               "the gap largest on needles\n";
}

void GuessRejection() {
  bench::Banner("A2b: guess rejection power",
                "the exact sub-solver *proves* õpt < opt and rejects the "
                "guess; greedy cannot certify and wastes budget");
  bench::Params("planted(n=1024,m=48,opt=6), guesses 1..6, alpha=2");
  Rng rng(5);
  const SetSystem system = PlantedCoverInstance(1024, 48, 6, rng);
  TablePrinter table({"guess", "exact: accepted", "greedy: accepted"});
  for (std::size_t guess = 1; guess <= 6; ++guess) {
    bool accepted[2] = {false, false};
    for (const bool exact : {true, false}) {
      VectorSetStream stream(system);
      AssadiSetCover algorithm(MakeConfig(exact));
      Rng run_rng(guess * 13 + (exact ? 1 : 0));
      const GuessResult result = algorithm.RunWithGuess(stream, guess, run_rng);
      accepted[exact ? 0 : 1] = result.feasible && result.within_budget;
    }
    table.BeginRow();
    table.AddCell(static_cast<std::uint64_t>(guess));
    table.AddCell(accepted[0] ? "yes" : "no");
    table.AddCell(accepted[1] ? "yes" : "no");
  }
  table.Print(std::cout);
  std::cout << "# expect: both reject tiny guesses; the exact column flips "
               "to yes exactly at guess = opt = 6 (earlier acceptances for "
               "greedy would mean its budget absorbed the ln-factor loss)\n";
}

}  // namespace
}  // namespace streamsc

int main() {
  streamsc::SolutionQuality();
  streamsc::GuessRejection();
  return 0;
}
