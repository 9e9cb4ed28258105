// E2 — Theorem 1 (shape): the Ω̃(m·n^{1/α}) space threshold is real. Two
// probes: (a) sweep the element-sampling rate around the Lemma 3.12 /
// Algorithm 1 operating point and measure how often the run stays within
// its (α+ε)·õpt budget — failure probability jumps once the stored sample
// (the space) drops below the threshold; (b) report space·passes against
// the m·n^{1/α} bound for successful runs.

#include <iostream>

#include "bench_common.h"
#include "core/assadi_set_cover.h"
#include "instance/generators.h"
#include "offline/greedy.h"
#include "stream/set_stream.h"
#include "util/math.h"
#include "util/table_printer.h"

namespace streamsc {
namespace {

void SweepSamplingBoost() {
  bench::Banner("E2a: success vs space (sampling-rate sweep)",
                "below the m*n^{1/alpha} operating point, alpha-"
                "approximation fails  [Theorem 1 + Lemma 3.12]");
  // Uniform random sets: many alternative õpt-covers of any small sample
  // exist, so an under-sampled iteration picks covers that miss a large
  // fraction of U and the cleanup pass inflates the solution past its
  // (α+ε)·õpt budget. (A planted instance would hide this: its blocks are
  // the only small cover of any sample, so the sub-solver recovers them
  // even from a handful of sampled elements.)
  const std::size_t n = 4096, m = 96, set_size = (2 * n) / 5, alpha = 3;
  const int trials = 15;
  bench::Params("n=4096 m=96 |S_i|=0.4n alpha=3 eps=0.5 trials=15 "
                "uniform-random; boost multiplies the paper's rate; "
                "opt calibrated by offline greedy");
  TablePrinter table({"boost", "mean_space_bits", "within_budget",
                      "mean_ratio", "mean_residual|U|", "success_rate"});
  for (const double boost :
       {1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0}) {
    int ok = 0;
    double space_sum = 0.0, ratio_sum = 0.0, residual_sum = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(1000 * trial + 17);
      const SetSystem system = UniformRandomInstance(n, m, set_size, rng);
      const std::size_t opt_guess = GreedySetCover(system).size();
      VectorSetStream stream(system);
      AssadiConfig config;
      config.alpha = alpha;
      config.epsilon = 0.5;
      config.sampling_boost = boost;
      config.ensure_feasible = true;
      config.exact_node_budget = 200'000;  // degrade to greedy quickly
      AssadiSetCover algorithm(config);
      Rng run_rng(trial + 5);
      const GuessResult result =
          algorithm.RunWithGuess(stream, opt_guess, run_rng);
      space_sum += static_cast<double>(result.stats.peak_space_bytes) * 8.0;
      ratio_sum += static_cast<double>(result.solution.size()) /
                   static_cast<double>(opt_guess);
      residual_sum += static_cast<double>(result.residual_after_iterations);
      if (result.feasible && result.within_budget) ++ok;
    }
    table.BeginRow();
    table.AddCell(boost, 4);
    table.AddCell(space_sum / trials, 0);
    table.AddCell(std::to_string(ok) + "/" + std::to_string(trials));
    table.AddCell(ratio_sum / trials, 2);
    table.AddCell(residual_sum / trials, 0);
    table.AddCell(static_cast<double>(ok) / trials, 2);
  }
  table.Print(std::cout);
  std::cout << "# expect: at boost ~1 the ratio is ~1 and the residual "
               "universe after the alpha iterations is ~0 (Lemma 3.11); "
               "below the paper's rate the per-iteration guarantee breaks "
               "(residual grows) and the cleanup pass inflates the ratio\n";
}

void SpaceTimesPasses() {
  bench::Banner("E2b: space*passes vs the m*n^{1/alpha} bound",
                "p-pass algorithms obey p*s = Omega(m*n^{1/alpha}) "
                "[Theorem 1]");
  const std::size_t n = 8192, m = 128, opt = 4;
  bench::Params("n=8192 m=128 opt=4 eps=0.5 planted-cover");
  TablePrinter table({"alpha", "passes", "space_bits", "p*s_bits",
                      "m*n^{1/alpha}", "p*s / bound"});
  for (std::size_t alpha = 1; alpha <= 5; ++alpha) {
    Rng rng(alpha * 31);
    const SetSystem system = PlantedCoverInstance(n, m, opt, rng);
    VectorSetStream stream(system);
    AssadiConfig config;
    config.alpha = alpha;
    config.epsilon = 0.5;
    AssadiSetCover algorithm(config);
    Rng run_rng(alpha + 77);
    const GuessResult result = algorithm.RunWithGuess(stream, opt, run_rng);
    const double ps = static_cast<double>(result.stats.passes) *
                      static_cast<double>(result.stats.peak_space_bytes) * 8.0;
    const double bound =
        static_cast<double>(m) *
        NthRoot(static_cast<double>(n), static_cast<double>(alpha));
    table.BeginRow();
    table.AddCell(static_cast<std::uint64_t>(alpha));
    table.AddCell(result.stats.passes);
    table.AddCell(static_cast<double>(result.stats.peak_space_bytes) * 8.0, 0);
    table.AddCell(ps, 0);
    table.AddCell(bound, 0);
    table.AddCell(ps / bound, 2);
  }
  table.Print(std::cout);
  std::cout << "# expect: p*s / bound >= Omega(1) (never dives toward 0): "
               "the upper bound sits above the lower bound at every alpha\n";
}

}  // namespace
}  // namespace streamsc

int main() {
  streamsc::SweepSamplingBoost();
  streamsc::SpaceTimesPasses();
  return 0;
}
