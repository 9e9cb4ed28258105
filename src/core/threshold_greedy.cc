#include "core/threshold_greedy.h"

#include <algorithm>

#include "core/cover_run.h"
#include "obs/trace.h"
#include "util/check.h"

namespace streamsc {

ThresholdGreedySetCover::ThresholdGreedySetCover(ThresholdGreedyConfig config)
    : config_(config) {
  STREAMSC_CHECK(config_.beta > 1.0,
                 "ThresholdGreedyConfig: beta must be > 1 (the threshold "
                 "must shrink every pass)");
}

std::string ThresholdGreedySetCover::name() const {
  return "threshold-greedy(beta=" + std::to_string(config_.beta) + ")";
}

SetCoverRunResult ThresholdGreedySetCover::Run(SetStream& stream,
                                               const RunContext& context) {
  CoverRun run(stream, context);

  // Thresholds n, n/β, n/β², ..., ending with a final pass at exactly 1 —
  // one pass each. A set is taken the moment its marginal gain meets the
  // current threshold, which emulates offline greedy within a factor β.
  double threshold = static_cast<double>(stream.universe_size());
  std::uint64_t round = 0;
  while (!run.uncovered().None()) {
    TraceSpan round_span(run.ctx().trace(), TraceCategory::kPhase,
                         "threshold_round");
    round_span.AddArg("round", round++);
    round_span.AddArg("threshold",
                      static_cast<std::uint64_t>(std::max(threshold, 1.0)));
    run.ThresholdPass(std::max(threshold, 1.0));
    if (threshold <= 1.0) break;
    threshold /= config_.beta;
  }
  return run.Finish();
}

}  // namespace streamsc
