#include "stream/engine_context.h"

#include <algorithm>

#include "util/check.h"

namespace streamsc {

namespace engine_counters {

// Function-local statics: interned once, one guarded load afterwards.
CounterId Passes() {
  static const CounterId id = CounterId::Counter("engine.passes");
  return id;
}
CounterId ItemsScanned() {
  static const CounterId id = CounterId::Counter("engine.items_scanned");
  return id;
}
CounterId SetsTaken() {
  static const CounterId id = CounterId::Counter("engine.sets_taken");
  return id;
}
CounterId ElementsCovered() {
  static const CounterId id = CounterId::Counter("engine.elements_covered");
  return id;
}
CounterId ShardJobs() {
  static const CounterId id = CounterId::Counter("engine.shard_jobs");
  return id;
}
CounterId ShardItems() {
  static const CounterId id = CounterId::Counter("engine.shard_items");
  return id;
}

}  // namespace engine_counters

std::unique_ptr<ParallelPassEngine> MakeEngine(std::size_t num_threads) {
  STREAMSC_CHECK(num_threads >= 1,
                 "MakeEngine: thread count 0 is ambiguous — resolve "
                 "hardware_concurrency() explicitly if you mean all cores");
  if (num_threads == 1) return nullptr;
  return std::make_unique<ParallelPassEngine>(num_threads);
}

void RequireSharded(const SetStream& /*stream*/,
                    const ParallelPassEngine* engine) {
  STREAMSC_CHECK(engine != nullptr,
                 "RequireSharded: null engine where a sharded run is "
                 "required — the run would silently fall back to the "
                 "sequential scan");
}

void EngineContext::GainScanPass(
    DynamicBitset& uncovered,
    FunctionRef<void(const StreamItem&, Count, bool)> visit) {
  GainScanPassNamed("gain_scan", uncovered, visit);
}

void EngineContext::GainScanPassNamed(
    const char* name, DynamicBitset& uncovered,
    FunctionRef<void(const StreamItem&, Count, bool)> visit) {
  const PassScope scope(*this, name);
  BeginCountedPass();
  const std::size_t m = stream_.num_sets();
  if (!sharded() || engine_->num_threads() <= 1 || m < 2) {
    for (std::size_t pos = 0; pos < m; ++pos) {
      if (uncovered.None()) return;
      const StreamItem item = stream_.ItemAt(pos);
      const Count gain = item.set.CountAnd(uncovered);
      if (gain > 0) visit(item, gain, /*bound_is_exact=*/true);
    }
    return;
  }

  // Chunked parallel filter + in-order commit. The chunk size only
  // affects how stale the snapshot bounds are, never the outcome: bounds
  // only shrink as earlier commits subtract from `uncovered`, so a zero
  // bound is a proof of zero current gain, and survivors are handed to
  // visit in stream order against the live state. The bound buffer lives
  // in this thread's scratch arena for the duration of the scan.
  const std::size_t chunk =
      std::max<std::size_t>(64, m / (8 * engine_->num_threads()));
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  Count* const bounds = scratch.Allocate<Count>(chunk);
  for (std::size_t pos = 0; pos < m; pos += chunk) {
    if (uncovered.None()) return;
    const std::size_t width = std::min(chunk, m - pos);
    engine_->ParallelFor(
        width,
        [&](std::size_t k) {
          bounds[k] = stream_.ItemAt(pos + k).set.CountAnd(uncovered);
        },
        trace_);
    for (std::size_t k = 0; k < width; ++k) {
      if (bounds[k] > 0) {
        visit(stream_.ItemAt(pos + k), bounds[k], /*bound_is_exact=*/false);
      }
    }
  }
}

void EngineContext::ThresholdPass(double threshold, DynamicBitset& uncovered,
                                  FunctionRef<void(SetId)> on_take) {
  GainScanPassNamed(
      "threshold", uncovered,
      [&](const StreamItem& item, Count bound, bool bound_is_exact) {
        // A below-threshold bound is a proof of ineligibility (gains only
        // shrink); survivors are re-evaluated against the live
        // `uncovered`, in order.
        if (static_cast<double>(bound) < threshold) return;
        const Count gain =
            bound_is_exact ? bound : item.set.CountAnd(uncovered);
        if (gain > 0 && static_cast<double>(gain) >= threshold) {
          on_take(item.id);
          RecordTake(gain);
          item.set.AndNotInto(uncovered);
        }
      });
}

void EngineContext::IndependentScanPass(
    std::size_t num_lanes,
    FunctionRef<void(std::size_t, const StreamItem&)> visit) {
  const PassScope scope(*this, "independent_scan");
  BeginCountedPass();
  const std::size_t m = stream_.num_sets();
  if (!sharded() || engine_->num_threads() <= 1 || num_lanes < 2) {
    for (std::size_t pos = 0; pos < m; ++pos) {
      const StreamItem item = stream_.ItemAt(pos);
      for (std::size_t lane = 0; lane < num_lanes; ++lane) visit(lane, item);
    }
    return;
  }
  engine_->ParallelFor(
      num_lanes,
      [&](std::size_t lane) {
        for (std::size_t pos = 0; pos < m; ++pos) {
          visit(lane, stream_.ItemAt(pos));
        }
      },
      trace_);
}

void EngineContext::SubtractPass(std::span<const SetId> chosen,
                                 DynamicBitset& uncovered) {
  ChosenSetsPass("subtract", chosen, &uncovered,
                 [&](SetView set) { set.AndNotInto(uncovered); });
}

void EngineContext::UnionPass(std::span<const SetId> chosen,
                              DynamicBitset& covered) {
  ChosenSetsPass("union", chosen, nullptr,
                 [&](SetView set) { set.OrInto(covered); });
}

void EngineContext::ChosenSetsPass(const char* name,
                                   std::span<const SetId> chosen,
                                   DynamicBitset* uncovered,
                                   FunctionRef<void(SetView)> fold) {
  if (chosen.empty()) return;
  // Sort a scratch copy of the ids (the caller's order is not ours to
  // disturb) for the binary-search membership probe below.
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  SetId* const sorted = scratch.Allocate<SetId>(chosen.size());
  std::copy(chosen.begin(), chosen.end(), sorted);
  std::sort(sorted, sorted + chosen.size());
  const PassScope scope(*this, name);
  BeginCountedPass();
  // Two popcounts of U cost less than a CountAnd per chosen set.
  const Count before = uncovered != nullptr ? uncovered->CountSet() : 0;
  const std::size_t m = stream_.num_sets();
  for (std::size_t pos = 0;
       pos < m && (uncovered == nullptr || !uncovered->None()); ++pos) {
    const StreamItem item = stream_.ItemAt(pos);
    if (std::binary_search(sorted, sorted + chosen.size(), item.id)) {
      fold(item.set);
    }
  }
  if (uncovered != nullptr) {
    counters_.Add(engine_counters::ElementsCovered(),
                  before - uncovered->CountSet());
  }
}

void EngineContext::CoverResiduePass(DynamicBitset& uncovered,
                                     FunctionRef<void(SetId)> on_take) {
  const PassScope scope(*this, "cover_residue");
  BeginCountedPass();
  const std::size_t m = stream_.num_sets();
  for (std::size_t pos = 0; pos < m && !uncovered.None(); ++pos) {
    const StreamItem item = stream_.ItemAt(pos);
    if (item.set.Intersects(uncovered)) {
      const Count gain = item.set.CountAnd(uncovered);
      on_take(item.id);
      item.set.AndNotInto(uncovered);
      RecordTake(gain);
    }
  }
}

void EngineContext::ParallelFor(std::size_t count,
                                FunctionRef<void(std::size_t)> fn) {
  if (engine_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  engine_->ParallelFor(count, fn, trace_);
}

}  // namespace streamsc
