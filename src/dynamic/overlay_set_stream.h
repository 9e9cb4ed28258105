#ifndef STREAMSC_DYNAMIC_OVERLAY_SET_STREAM_H_
#define STREAMSC_DYNAMIC_OVERLAY_SET_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/delta_log.h"
#include "stream/set_stream.h"
#include "util/set_view.h"
#include "util/status.h"

/// \file overlay_set_stream.h
/// OverlaySetStream: one SetStream over (base instance + sscd1 delta log).
///
/// The base is any owned SetStream that serves set id i at position i:
/// every stream OpenInstance (storage/mmap_set_stream.h) returns for an
/// sscb1 or ssc1 file does, and so does an adversarial-order
/// VectorSetStream. The overlay reads it by position and never starts a
/// pass on it. The delta log replays on top (dynamic/delta_log.h): live
/// sets enumerate in slot order — base order first, then append order —
/// with tombstoned slots suppressed and replaced slots served from the
/// log's payload. The live ids handed out are *densely renumbered*, so
/// the stream is indistinguishable from the compacted sscb1 that
/// Materialize() writes: solving the overlay and solving the materialized
/// file produce byte-identical solutions.
///
/// Every view points into the base stream or the delta mapping, both of
/// which live as long as the stream, and ItemAt(i) is the i-th live set
/// in O(1) — so a ParallelPassEngine shards a pass over a composed
/// instance by position exactly as over a plain mmap.
///
/// RefreshDelta() re-reads the delta file (the watch-mode beat): the base
/// stays untouched, the log is re-validated and re-replayed, and the live
/// table is rebuilt. It invalidates previously handed-out views and
/// renumbers live ids; per-slot versions (slot_version) let a caller —
/// the warm-start path — decide which previously chosen sets survived.

namespace streamsc {

/// A SetStream over base + delta. Not copyable (owns mappings).
class OverlaySetStream : public SetStream {
 public:
  /// Opens \p base_path (OpenInstance: sscb1 mapped, else ssc1 text)
  /// plus the delta log at \p delta_path; check status() before
  /// streaming. An error status leaves an empty stream (0 sets).
  OverlaySetStream(const std::string& base_path,
                   const std::string& delta_path);

  /// Overlays \p delta_path over \p base. Precondition: \p base is not
  /// null and serves set id i at position i.
  OverlaySetStream(std::unique_ptr<SetStream> base,
                   const std::string& delta_path);

  OverlaySetStream(const OverlaySetStream&) = delete;
  OverlaySetStream& operator=(const OverlaySetStream&) = delete;

  /// Ok iff base and delta both opened, validated, and composed.
  const Status& status() const { return status_; }

  std::size_t universe_size() const override { return universe_size_; }
  /// Number of *live* sets (base + adds - tombstones).
  std::size_t num_sets() const override { return live_.size(); }
  StreamItem ItemAt(std::size_t pos) const override {
    const SetId id = static_cast<SetId>(pos);
    return StreamItem{id, set(id)};
  }

  /// Random access to the \p id-th live set, O(1). Precondition:
  /// status().ok() and id < num_sets().
  SetView set(SetId id) const;

  /// Re-reads the delta log from disk; the base is untouched. On success
  /// the live table is rebuilt (ids renumber, old views invalidate; call
  /// BeginPass() before streaming again). On *any* failure — torn bytes,
  /// hostile records, or a log whose declared base stopped matching — the
  /// previous composed state is retained and status() stays Ok: a bad
  /// poll degrades to "no change yet", not a dead stream, and a later
  /// RefreshDelta() of a repaired file recovers.
  Status RefreshDelta();

  /// Writes the live instance as a fresh sscb1 at \p out_path — the
  /// compaction path. The result loads as a plain MmapSetStream with the
  /// same sets under the same (renumbered) ids this stream enumerates.
  Status Materialize(const std::string& out_path) const;

  /// Total slots (base sets + adds, including tombstoned).
  std::uint64_t num_slots() const { return slot_live_.size(); }

  /// The underlying slot of live id \p id. Precondition: id < num_sets().
  std::uint64_t live_to_slot(SetId id) const { return live_[id]; }

  /// True iff \p slot is live. Precondition: slot < num_slots().
  bool slot_live(std::uint64_t slot) const {
    return slot_live_[static_cast<std::size_t>(slot)];
  }

  /// Version of \p slot (0 = untouched base; else 1 + last touching
  /// record). A previously chosen (slot, version) pair still denotes the
  /// same set content iff the slot is live and the version is unchanged.
  std::uint64_t slot_version(std::uint64_t slot) const;

  /// Live id of \p slot, or kInvalidSetId if tombstoned. O(log live).
  SetId slot_to_live(std::uint64_t slot) const;

  /// Number of replayed delta records.
  std::uint64_t delta_records() const { return delta_.record_count(); }

  /// Number of base sets (before the delta).
  std::uint64_t base_num_sets() const { return base_num_sets_; }

  /// The delta log path (for RefreshDelta / diagnostics).
  const std::string& delta_path() const { return delta_path_; }

 private:
  // The one compose path both public constructors share: a failed \p base
  // or delta leaves the stream empty.
  OverlaySetStream(StatusOr<std::unique_ptr<SetStream>> base,
                   const std::string& delta_path);
  // Validates \p delta against the base's dimensions — the gate the
  // constructor and RefreshDelta() pass a log through before composing.
  Status CheckCompatible(const DeltaLog& delta) const;
  // Rebuilds live_/slot_live_ from delta_. Infallible: the delta already
  // passed CheckCompatible().
  void Compose();

  Status status_;
  std::string delta_path_;
  std::unique_ptr<SetStream> base_;  // serves base slot i at position i
  DeltaLog delta_;
  std::size_t universe_size_ = 0;
  std::uint64_t base_num_sets_ = 0;
  std::vector<std::uint64_t> live_;  // live id -> slot
  std::vector<bool> slot_live_;      // slot -> liveness (mirrors delta_)
  // slot -> payload residency, cached densely at compose time: set() is
  // the per-item hot path and must not pay the delta's sparse-slot-table
  // lookup per access. Sizing by num_slots is safe here — compose is
  // gated on the delta matching the actual base, whose size is real.
  std::vector<bool> slot_from_delta_;
};

}  // namespace streamsc

#endif  // STREAMSC_DYNAMIC_OVERLAY_SET_STREAM_H_
