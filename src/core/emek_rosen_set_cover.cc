#include "core/emek_rosen_set_cover.h"

#include <algorithm>
#include <cmath>

#include "core/cover_run.h"
#include "obs/trace.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/space_meter.h"

namespace streamsc {
namespace {

// Interned metering category (hot path: array index per Charge).
const SpaceCategory kWitnessesCat("witnesses");

}  // namespace

EmekRosenSetCover::EmekRosenSetCover(EmekRosenConfig config)
    : config_(config) {}

std::string EmekRosenSetCover::name() const {
  return config_.threshold == 0
             ? "emek-rosen(sqrt n)"
             : "emek-rosen(theta=" + std::to_string(config_.threshold) + ")";
}

std::size_t EmekRosenSetCover::ThresholdFor(std::size_t n) const {
  if (config_.threshold > 0) return config_.threshold;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::sqrt(
             static_cast<double>(n)))));
}

SetCoverRunResult EmekRosenSetCover::Run(SetStream& stream,
                                         const RunContext& context) {
  const std::size_t n = stream.universe_size();
  // An explicit threshold above n silently disables the "big set" rule —
  // the O(√n) bound degrades to witness-only O(n) without any signal.
  // That is a configuration bug, not a parameter choice.
  STREAMSC_CHECK(config_.threshold <= n,
                 "EmekRosenConfig: explicit threshold exceeds the universe "
                 "size (no set could ever qualify as big); use 0 for the "
                 "sqrt(n) default");
  const std::size_t theta = ThresholdFor(n);

  // Run-lived state (U, the witness array, the solution ids) lives on the
  // run arena.
  CoverRun run(stream, context);
  EngineContext& ctx = run.ctx();
  DynamicBitset& uncovered = run.uncovered();
  // Witness id per element; kInvalidSetId = none seen yet. Elements
  // covered by a taken set keep their (now unused) witness slot — the
  // array is the Õ(n) term of the space bound either way.
  ArenaVector<SetId> witness(n, kInvalidSetId, ctx.alloc<SetId>());
  ctx.meter().Charge(n * sizeof(SetId), kWitnessesCat);

  // The threshold-and-witness pass. The big-set rule is a monotone
  // threshold take (eligible for the snapshot filter); the witness writes
  // happen in the in-order commit, so the witness array evolves exactly
  // as in the sequential loop.
  const std::int64_t scan_start =
      ctx.trace() != nullptr ? TraceRecorder::NowNs() : 0;
  ctx.GainScanPass(uncovered, [&](const StreamItem& item, Count bound,
                                  bool bound_is_exact) {
    if (bound >= theta) {
      const Count gain =
          bound_is_exact ? bound : item.set.CountAnd(uncovered);
      if (gain >= theta) {
        run.Take(item, gain);
        return;
      }
      if (gain == 0) return;  // fully covered since the snapshot
    }
    const SetId id = item.id;
    item.set.ForEach([&](ElementId e) {
      if (uncovered.Test(e) && witness[e] == kInvalidSetId) {
        witness[e] = id;
      }
    });
  });

  if (ctx.trace() != nullptr) {
    ctx.trace()->Emit(TraceCategory::kPhase, "witness_scan", scan_start,
                      TraceRecorder::NowNs() - scan_start);
  }

  // End of pass: close the cover with the witnesses of the survivors.
  // The leftover list is transient (consumed before the rewind): scratch.
  {
    const TraceSpan phase(ctx.trace(), TraceCategory::kPhase, "closeout");
    MonotonicArena& scratch = ThreadScratchArena();
    const ArenaCheckpoint leftovers_checkpoint(scratch);
    ArenaVector<SetId> leftovers{ArenaAllocator<SetId>(&scratch)};
    uncovered.ForEach([&](ElementId e) {
      if (witness[e] != kInvalidSetId) leftovers.push_back(witness[e]);
    });
    std::sort(leftovers.begin(), leftovers.end());
    leftovers.erase(std::unique(leftovers.begin(), leftovers.end()),
                    leftovers.end());

    // One more (cheap) pass to subtract the witnesses' actual contents —
    // needed only to *verify* feasibility; the ids were already final.
    run.TakeAndSubtract(leftovers);
  }
  return run.Finish();
}

}  // namespace streamsc
