#include "dynamic/overlay_set_stream.h"

#include <algorithm>
#include <utility>

#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "util/check.h"

namespace streamsc {

OverlaySetStream::OverlaySetStream(const std::string& base_path,
                                   const std::string& delta_path)
    : OverlaySetStream(OpenInstance(base_path), delta_path) {}

OverlaySetStream::OverlaySetStream(std::unique_ptr<SetStream> base,
                                   const std::string& delta_path)
    : OverlaySetStream(
          StatusOr<std::unique_ptr<SetStream>>(std::move(base)),
          delta_path) {}

OverlaySetStream::OverlaySetStream(StatusOr<std::unique_ptr<SetStream>> base,
                                   const std::string& delta_path)
    : status_(base.status()), delta_path_(delta_path) {
  if (!status_.ok()) return;
  base_ = std::move(*base);
  STREAMSC_CHECK(base_ != nullptr, "OverlaySetStream: null base stream");
  delta_ = DeltaLog(delta_path);
  status_ = delta_.status();
  if (status_.ok()) status_ = CheckCompatible(delta_);
  if (status_.ok()) Compose();
}

Status OverlaySetStream::CheckCompatible(const DeltaLog& delta) const {
  const std::size_t base_n = base_->universe_size();
  const std::uint64_t base_m = base_->num_sets();
  if (delta.universe_size() != base_n) {
    return Status::InvalidArgument(
        "sscd1: delta universe size " + std::to_string(delta.universe_size()) +
        " mismatches the base instance's " + std::to_string(base_n));
  }
  if (delta.base_num_sets() != base_m) {
    return Status::InvalidArgument(
        "sscd1: delta declares a base of " +
        std::to_string(delta.base_num_sets()) + " sets; the base has " +
        std::to_string(base_m));
  }
  return Status::Ok();
}

void OverlaySetStream::Compose() {
  universe_size_ = base_->universe_size();
  base_num_sets_ = base_->num_sets();

  const std::uint64_t slots = delta_.num_slots();
  slot_live_.assign(static_cast<std::size_t>(slots), false);
  slot_from_delta_.assign(static_cast<std::size_t>(slots), false);
  live_.clear();
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    if (delta_.slot_from_delta(slot)) {
      slot_from_delta_[static_cast<std::size_t>(slot)] = true;
    }
    if (!delta_.slot_live(slot)) continue;
    slot_live_[static_cast<std::size_t>(slot)] = true;
    live_.push_back(slot);
  }
}

SetView OverlaySetStream::set(SetId id) const {
  STREAMSC_CHECK(status_.ok() && id < live_.size(),
                 "OverlaySetStream::set: invalid stream or id");
  const std::uint64_t slot = live_[id];
  if (slot_from_delta_[static_cast<std::size_t>(slot)]) {
    return delta_.slot_view(slot);
  }
  return base_->ItemAt(static_cast<std::size_t>(slot)).set;
}

Status OverlaySetStream::RefreshDelta() {
  // A constructor-failed stream never composed; there is no previous
  // state to fall back to, so it stays empty.
  if (!status_.ok()) return status_;
  // Validate the fresh log end to end *before* committing anything: a
  // torn, hostile, or base-mismatched file returns its typed error while
  // the current composition (and status_) stay untouched — the caller's
  // poll degrades to "no change yet" and a repaired file refreshes fine.
  DeltaLog fresh(delta_path_);
  if (!fresh.status().ok()) return fresh.status();
  const Status compatible = CheckCompatible(fresh);
  if (!compatible.ok()) return compatible;
  delta_ = std::move(fresh);
  Compose();
  return Status::Ok();
}

Status OverlaySetStream::Materialize(const std::string& out_path) const {
  if (!status_.ok()) return status_;
  BinaryInstanceWriter writer(out_path, universe_size_, live_.size());
  if (!writer.status().ok()) return writer.status();
  for (SetId id = 0; id < live_.size(); ++id) {
    if (!writer.AddSet(set(id)).ok()) return writer.status();
  }
  return writer.Finish();
}

std::uint64_t OverlaySetStream::slot_version(std::uint64_t slot) const {
  STREAMSC_DCHECK(slot < delta_.num_slots());
  return delta_.slot_version(slot);
}

SetId OverlaySetStream::slot_to_live(std::uint64_t slot) const {
  // live_ holds slots in increasing order; a binary search recovers the
  // dense renumbering without a slots-sized side table.
  const auto it = std::lower_bound(live_.begin(), live_.end(), slot);
  if (it == live_.end() || *it != slot) return kInvalidSetId;
  return static_cast<SetId>(it - live_.begin());
}

}  // namespace streamsc
