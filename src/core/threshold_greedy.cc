#include "core/threshold_greedy.h"

#include <algorithm>

#include "obs/trace.h"
#include "stream/engine_context.h"
#include "util/check.h"
#include "util/space_meter.h"

namespace streamsc {
namespace {

// Interned metering categories (hot path: array index per Charge).
const SpaceCategory kUncoveredCat("uncovered");
const SpaceCategory kSolutionCat("solution");

}  // namespace

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
  const std::size_t n = stream.universe_size();

  SetCoverRunResult result;
  EngineContext ctx(stream, context);
  DynamicBitset uncovered =
      DynamicBitset::Full(n, ctx.alloc<DynamicBitset::Word>());
  ctx.meter().Charge(uncovered.ByteSize(), kUncoveredCat);
  Solution solution(ctx.alloc<SetId>());

  const auto take = [&](SetId id) {
    solution.chosen.push_back(id);
    ctx.meter().SetCategory(solution.size() * sizeof(SetId), kSolutionCat);
  };

  // Thresholds n, n/β, n/β², ..., ending with a final pass at exactly 1 —
  // one pass each. A set is taken the moment its marginal gain meets the
  // current threshold, which emulates offline greedy within a factor β.
  double threshold = static_cast<double>(n);
  std::uint64_t round = 0;
  while (!uncovered.None()) {
    TraceSpan round_span(ctx.trace(), TraceCategory::kPhase,
                         "threshold_round");
    round_span.AddArg("round", round++);
    round_span.AddArg("threshold",
                      static_cast<std::uint64_t>(std::max(threshold, 1.0)));
    ctx.ThresholdPass(std::max(threshold, 1.0), uncovered, take);
    if (threshold <= 1.0) break;
    threshold /= config_.beta;
  }

  result.solution = std::move(solution);
  result.feasible = uncovered.None();
  result.stats = ctx.Stats();
  return result;
}

}  // namespace streamsc
