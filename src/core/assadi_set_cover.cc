#include "core/assadi_set_cover.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"
#include "util/math.h"

namespace streamsc {

AssadiSetCover::AssadiSetCover(AssadiConfig config) : config_(config) {
  STREAMSC_CHECK(config_.alpha >= 1, "AssadiConfig: alpha must be >= 1");
  STREAMSC_CHECK(config_.epsilon > 0.0, "AssadiConfig: epsilon must be > 0");
}

std::string AssadiSetCover::name() const {
  return "assadi(alpha=" + std::to_string(config_.alpha) +
         ",eps=" + std::to_string(config_.epsilon) + ")";
}

GuessResult AssadiSetCover::RunWithGuess(SetStream& stream,
                                         std::size_t opt_guess, Rng& rng,
                                         const RunContext& context,
                                         SubsolveMemo* memo) const {
  const std::size_t n = stream.universe_size();
  const std::size_t guess = std::max<std::size_t>(opt_guess, 1);
  const double alpha = static_cast<double>(config_.alpha);
  // Only the greedy ablation's sub-solve is independent of õpt.
  GuessRun run(stream, context, opt_guess, alpha + config_.epsilon,
               config_.use_exact_subsolver ? nullptr : memo);

  // --- Pass 0: one-shot pruning. -----------------------------------------
  // Any set still covering >= n/(ε·õpt) uncovered elements is taken. At
  // most ε·õpt sets can be taken (each removes >= n/(ε·õpt) elements).
  run.Prune(static_cast<double>(n) /
            (config_.epsilon * static_cast<double>(guess)));

  // --- α iterations of sample / store / solve / subtract. ----------------
  const double rho = 1.0 / NthRoot(static_cast<double>(n), alpha);
  const double rate = ElementSamplingRate(n, stream.num_sets(), guess, rho,
                                          config_.sampling_boost);
  bool guess_ok = true;
  for (std::size_t iter = 0; iter < config_.alpha && guess_ok; ++iter) {
    if (run.uncovered().None()) break;
    TraceSpan iteration_span(run.trace(), TraceCategory::kPhase, "iteration");
    iteration_span.AddArg("iter", iter);
    // (c) Solve the sub-instance *optimally* (the model allows unbounded
    // computation; we keep a node budget, and a guess whose search runs
    // out of it fails). The A2 ablation flips use_exact_subsolver off to
    // quantify what the paper's optimal sub-solve buys over plain greedy.
    guess_ok = run.Step(
        rate, rng, "subsolve",
        [&](const SetSystem& projections, ArenaVector<SetId>& chosen) {
          if (config_.use_exact_subsolver) {
            return run.SolveExactly(projections, config_.exact_node_budget,
                                    chosen);
          }
          GreedySubsolve(projections, chosen);
          return projections.IsFeasibleCover(chosen);
        });
  }
  return run.Finish(guess_ok, config_.ensure_feasible);
}

SetCoverRunResult AssadiSetCover::Run(SetStream& stream,
                                      const RunContext& context) {
  return RunGuesses(stream, context, 1.0 + config_.epsilon, config_.known_opt,
                    config_.seed,
                    [&](std::size_t guess, Rng& rng, SubsolveMemo& memo) {
                      return RunWithGuess(stream, guess, rng, context, &memo);
                    });
}

}  // namespace streamsc
