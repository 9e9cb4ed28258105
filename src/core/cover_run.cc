#include "core/cover_run.h"

#include "util/space_meter.h"

namespace streamsc {
namespace {

// Interned metering categories (hot path: array index per Charge).
const SpaceCategory kUncoveredCat("uncovered");
const SpaceCategory kSolutionCat("solution");

}  // namespace

CoverRun::CoverRun(SetStream& stream, const RunContext& context)
    : ctx_(stream, context),
      // Run-lived state (U, the solution ids) comes from the run arena.
      uncovered_(DynamicBitset::Full(stream.universe_size(),
                                     ctx_.alloc<DynamicBitset::Word>())),
      solution_(ctx_.alloc<SetId>()) {
  ctx_.meter().Charge(uncovered_.ByteSize(), kUncoveredCat);
}

void CoverRun::Take(SetId id) {
  solution_.chosen.push_back(id);
  ctx_.meter().SetCategory(solution_.size() * sizeof(SetId), kSolutionCat);
}

void CoverRun::Take(const StreamItem& item, Count gain) {
  Take(item.id);
  item.set.AndNotInto(uncovered_);
  ctx_.RecordTake(gain);
}

void CoverRun::ThresholdPass(double threshold) {
  ctx_.ThresholdPass(threshold, uncovered_, [this](SetId id) { Take(id); });
}

void CoverRun::CoverResiduePass() {
  ctx_.CoverResiduePass(uncovered_, [this](SetId id) { Take(id); });
}

void CoverRun::TakeAndSubtract(std::span<const SetId> ids) {
  Append(ids);
  ctx_.RecordTakes(ids.size(), 0);
  ctx_.SubtractPass(ids, uncovered_);
}

SetCoverRunResult CoverRun::Finish() {
  return SetCoverRunResult{std::move(solution_), uncovered_.None(),
                           ctx_.Stats()};
}

void CoverRun::Append(std::span<const SetId> ids) {
  solution_.chosen.insert(solution_.chosen.end(), ids.begin(), ids.end());
  ctx_.meter().SetCategory(solution_.size() * sizeof(SetId), kSolutionCat);
}

}  // namespace streamsc
