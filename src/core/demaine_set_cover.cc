#include "core/demaine_set_cover.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/check.h"

namespace streamsc {

DemaineSetCover::DemaineSetCover(DemaineConfig config) : config_(config) {
  STREAMSC_CHECK(config_.alpha >= 2, "DemaineConfig: alpha must be >= 2");
}

std::string DemaineSetCover::name() const {
  return "demaine(alpha=" + std::to_string(config_.alpha) + ")";
}

double DemaineSetCover::SpaceExponent() const {
  const double delta =
      std::log(4.0) / std::log(static_cast<double>(config_.alpha));
  return std::clamp(delta, 1e-6, 1.0);
}

GuessResult DemaineSetCover::RunWithGuess(SetStream& stream,
                                          std::size_t opt_guess, Rng& rng,
                                          const RunContext& context,
                                          SubsolveMemo* memo) const {
  GuessRun run(stream, context, opt_guess,
               static_cast<double>(config_.alpha), memo);

  // Per-phase sample size target: n^delta elements of the residual
  // universe (the Õ(m·n^delta) space law), but never below what the
  // greedy sub-solve needs to make progress for a size-õpt cover.
  const double target =
      config_.sampling_boost *
      std::max(std::pow(static_cast<double>(stream.universe_size()),
                        SpaceExponent()),
               4.0 * static_cast<double>(std::max<std::size_t>(opt_guess, 1)));

  // O(alpha) phases: sample / store / greedy / subtract = 2 passes each.
  for (std::size_t phase = 0; phase < config_.alpha; ++phase) {
    if (run.uncovered().None()) break;
    TraceSpan phase_span(run.trace(), TraceCategory::kPhase, "phase");
    phase_span.AddArg("phase", phase);
    const double residual = static_cast<double>(run.uncovered().CountSet());
    // DIMV'14 covers the sample with greedy — the multiplicative loss per
    // phase is where the 4^{1/delta} approximation factor comes from. A
    // partial cover is kept: later phases or the cleanup pass finish it.
    run.Step(std::clamp(target / residual, 1e-12, 1.0), rng,
             "greedy_subsolve",
             [](const SetSystem& projections, ArenaVector<SetId>& chosen) {
               GreedySubsolve(projections, chosen);
               return true;
             });
  }
  return run.Finish(/*guess_ok=*/true, config_.ensure_feasible);
}

SetCoverRunResult DemaineSetCover::Run(SetStream& stream,
                                       const RunContext& context) {
  return RunGuesses(stream, context, 2.0, config_.known_opt, config_.seed,
                    [&](std::size_t guess, Rng& rng, SubsolveMemo& memo) {
                      return RunWithGuess(stream, guess, rng, context, &memo);
                    });
}

}  // namespace streamsc
