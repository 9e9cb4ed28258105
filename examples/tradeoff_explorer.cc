// tradeoff_explorer: interactive-style CLI over the space-approximation
// tradeoff. Pass parameters on the command line:
//
//   tradeoff_explorer [n] [m] [opt] [alpha_max]
//
// and it prints, for alpha = 1..alpha_max, the measured (passes, space,
// ratio) of Algorithm 1 on a planted instance of that shape, next to the
// Theorem 1 lower-bound curve m·n^{1/α} — the two sides of the paper in
// one table.

#include <cstdlib>
#include <iostream>

#include "core/assadi_set_cover.h"
#include "instance/generators.h"
#include "stream/set_stream.h"
#include "util/math.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace streamsc;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8192;
  const std::size_t m = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 128;
  const std::size_t opt = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;
  const std::size_t alpha_max =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 6;

  if (n < 16 || m < opt || opt < 1 || alpha_max < 1) {
    std::cerr << "usage: tradeoff_explorer [n>=16] [m>=opt] [opt>=1] "
                 "[alpha_max>=1]\n";
    return 2;
  }

  std::cout << "space-approximation tradeoff on a planted instance: n=" << n
            << " m=" << m << " opt=" << opt << "\n"
            << "upper bound: Algorithm 1 (Theorem 2); lower bound curve: "
               "m*n^{1/alpha} (Theorem 1)\n";

  Rng rng(1234);
  const SetSystem system = PlantedCoverInstance(n, m, opt, rng);

  TablePrinter table({"alpha", "passes", "sets", "ratio", "space",
                      "space_bits", "lower_bound_bits m*n^{1/a}"});
  for (std::size_t alpha = 1; alpha <= alpha_max; ++alpha) {
    VectorSetStream stream(system);
    AssadiConfig config;
    config.alpha = alpha;
    config.epsilon = 0.5;
    AssadiSetCover algorithm(config);
    Rng run_rng(alpha * 97);
    const GuessResult result = algorithm.RunWithGuess(stream, opt, run_rng);
    table.BeginRow();
    table.AddCell(static_cast<std::uint64_t>(alpha));
    table.AddCell(result.stats.passes);
    table.AddCell(static_cast<std::uint64_t>(result.solution.size()));
    table.AddCell(static_cast<double>(result.solution.size()) /
                      static_cast<double>(opt),
                  2);
    table.AddCell(HumanBytes(result.stats.peak_space_bytes));
    table.AddCell(static_cast<double>(result.stats.peak_space_bytes) * 8, 0);
    table.AddCell(static_cast<double>(m) *
                      NthRoot(static_cast<double>(n),
                              static_cast<double>(alpha)),
                  0);
  }
  table.Print(std::cout);

  std::cout << "\nreading the table: as alpha grows, passes grow (2a+1), "
               "the ratio budget loosens (a+0.5),\nand both the measured "
               "space and the lower-bound curve fall together like "
               "n^{1/alpha} —\nthe tight tradeoff the paper proves.\n";
  return 0;
}
