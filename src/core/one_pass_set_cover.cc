#include "core/one_pass_set_cover.h"

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

OnePassSetCover::OnePassSetCover(OnePassConfig config) : config_(config) {
  STREAMSC_CHECK(
      config_.min_gain_fraction >= 0.0 && config_.min_gain_fraction <= 1.0,
      "OnePassConfig: min_gain_fraction must lie in [0, 1]");
}

std::string OnePassSetCover::name() const {
  return "one-pass-greedy(frac=" + std::to_string(config_.min_gain_fraction) +
         ")";
}

SetCoverRunResult OnePassSetCover::Run(SetStream& stream,
                                       const RunContext& context) {
  const std::size_t n = stream.universe_size();

  SetCoverRunResult result;
  EngineContext ctx(stream, context);
  DynamicBitset uncovered =
      DynamicBitset::Full(n, ctx.alloc<DynamicBitset::Word>());
  ctx.meter().Charge(uncovered.ByteSize(), kUncoveredCat);
  Solution solution(ctx.alloc<SetId>());

  // The acceptance bar max(1, frac·|U|) shrinks together with |U|, so
  // only the zero-gain part of the snapshot filter is sound here: a
  // positive stale bound says nothing (the bar may have dropped faster
  // than the gain), so every visited item re-evaluates its exact gain.
  const TraceSpan phase(ctx.trace(), TraceCategory::kPhase, "scan");
  ctx.GainScanPass(uncovered, [&](const StreamItem& item, Count bound,
                                  bool bound_is_exact) {
    const Count gain = bound_is_exact ? bound : item.set.CountAnd(uncovered);
    if (gain == 0) return;
    const double needed = std::max(
        1.0, config_.min_gain_fraction *
                 static_cast<double>(uncovered.CountSet()));
    if (static_cast<double>(gain) >= needed) {
      solution.chosen.push_back(item.id);
      ctx.meter().SetCategory(solution.size() * sizeof(SetId), kSolutionCat);
      item.set.AndNotInto(uncovered);
      ctx.RecordTake(gain);
    }
  });

  result.solution = std::move(solution);
  result.feasible = uncovered.None();
  result.stats = ctx.Stats();
  return result;
}

}  // namespace streamsc
