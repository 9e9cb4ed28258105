#include "core/one_pass_set_cover.h"

#include <algorithm>

#include "core/cover_run.h"
#include "obs/trace.h"
#include "util/check.h"

namespace streamsc {

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
  CoverRun run(stream, context);
  EngineContext& ctx = run.ctx();
  DynamicBitset& uncovered = run.uncovered();

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
    if (static_cast<double>(gain) >= needed) run.Take(item, gain);
  });
  return run.Finish();
}

}  // namespace streamsc
