#include "core/har_peled_set_cover.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/check.h"
#include "util/math.h"

namespace streamsc {

HarPeledSetCover::HarPeledSetCover(HarPeledConfig config) : config_(config) {
  STREAMSC_CHECK(config_.alpha >= 1, "HarPeledConfig: alpha must be >= 1");
}

std::string HarPeledSetCover::name() const {
  return "har-peled(alpha=" + std::to_string(config_.alpha) + ")";
}

GuessResult HarPeledSetCover::RunWithGuess(SetStream& stream,
                                           std::size_t opt_guess, Rng& rng,
                                           const RunContext& context) const {
  const std::size_t n = stream.universe_size();
  const std::size_t guess = std::max<std::size_t>(opt_guess, 1);
  GuessRun run(stream, context, opt_guess,
               static_cast<double>(config_.alpha) + 1.0);

  // ceil(α/2) iterations, each reducing |U| by ~n^{2/α} (the c = 2
  // exponent in the original's n^{Θ(1/α)} space), sampling at the looser
  // rate with ρ = n^{-2/α}.
  const std::size_t iterations = (config_.alpha + 1) / 2;
  const double rho =
      1.0 / std::pow(static_cast<double>(n),
                     2.0 / static_cast<double>(config_.alpha));
  const double rate = ElementSamplingRate(n, stream.num_sets(), guess, rho,
                                          config_.sampling_boost);

  bool guess_ok = true;
  for (std::size_t iter = 0; iter < iterations && guess_ok; ++iter) {
    if (run.uncovered().None()) break;
    TraceSpan iteration_span(run.trace(), TraceCategory::kPhase, "iteration");
    iteration_span.AddArg("iter", iter);

    // 1. Iterative pruning pass (per-iteration, threshold |U|/(2·õpt)).
    run.Prune(static_cast<double>(run.uncovered().CountSet()) /
              (2.0 * static_cast<double>(guess)));
    if (run.uncovered().None()) break;

    // 2-3. Sampling pass, optimal sub-solve, subtraction pass.
    guess_ok = run.Step(
        rate, rng, "subsolve",
        [&](const SetSystem& projections, ArenaVector<SetId>& chosen) {
          return run.SolveExactly(projections, config_.exact_node_budget,
                                  chosen);
        });
  }
  // Cleanup pass for feasibility (as in Algorithm 1).
  return run.Finish(guess_ok, /*cover_residue=*/true);
}

SetCoverRunResult HarPeledSetCover::Run(SetStream& stream,
                                        const RunContext& context) {
  return RunGuesses(stream, context, 2.0, config_.known_opt, config_.seed,
                    [&](std::size_t guess, Rng& rng, SubsolveMemo&) {
                      // The exact sub-solve depends on õpt: no memo.
                      return RunWithGuess(stream, guess, rng, context);
                    });
}

}  // namespace streamsc
