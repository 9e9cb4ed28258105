#ifndef STREAMSC_DYNAMIC_DELTA_LOG_H_
#define STREAMSC_DYNAMIC_DELTA_LOG_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dynamic/delta_format.h"
#include "instance/set_system.h"
#include "storage/mmap_file.h"
#include "storage/set_payload.h"
#include "util/set_span.h"
#include "util/set_view.h"
#include "util/status.h"

/// \file delta_log.h
/// Reader and writer for sscd1 delta logs (dynamic/delta_format.h).
///
/// DeltaLog maps a log read-only, validates *everything* eagerly — header
/// arithmetic, every record's framing, payload invariants (sorted sparse
/// ids, zero dense tail bits, zero padding), and slot liveness across the
/// whole replay — and exposes the resulting slot table: which slots are
/// live, which carry a delta payload, and a per-slot version that bumps
/// whenever a record touches the slot (the warm-start survival test).
/// After an Ok status() no operation can read out of bounds; a corrupt or
/// torn log is a typed InvalidArgument at open, never an abort mid-pass.
/// Memory is proportional to the *records*, never to the header's claimed
/// base size: a hostile base_num_sets cannot drive allocation.
///
/// DeltaLogWriter appends records and back-patches the header's
/// record_count / file_size on Finish(). A reader never decodes a
/// half-appended record as data — but the atomicity is *reject-and-retry*,
/// not old-or-new: a reader that maps the file between an append and the
/// Finish() patch sees a header whose file_size no longer matches the
/// file and gets a typed InvalidArgument ("file size mismatch"), the same
/// rejection as any torn write. Pollers (watch mode, RefreshDelta) treat
/// that as "no change yet" and retry after Finish(). Append mode
/// revalidates the existing log (through DeltaLog) before extending it,
/// and both modes track slot liveness so a remove/replace of a dead or
/// out-of-range slot fails at write time with the same typed error a
/// reader would produce.

namespace streamsc {

/// A validated, replayed sscd1 delta log. Move-only (owns the mapping;
/// payload spans point into it and stay valid across moves).
class DeltaLog {
 public:
  /// An unopened log; status() is FailedPrecondition, zero slots.
  DeltaLog() = default;

  /// Maps and validates \p path eagerly; check status() before use. An
  /// error status leaves an empty log (0 slots).
  explicit DeltaLog(const std::string& path);

  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;
  DeltaLog(DeltaLog&&) = default;
  DeltaLog& operator=(DeltaLog&&) = default;

  /// Ok iff the log mapped, validated, and replayed end to end.
  const Status& status() const { return status_; }

  /// Universe size n the log applies to.
  std::size_t universe_size() const { return universe_size_; }

  /// Base set count m0 the log applies to (slots 0 .. m0-1).
  std::uint64_t base_num_sets() const { return base_num_sets_; }

  /// Number of records replayed.
  std::uint64_t record_count() const { return record_count_; }

  /// Total slots after replay: base_num_sets() + number of AddSet records.
  std::uint64_t num_slots() const { return base_num_sets_ + appended_.size(); }

  /// True iff \p slot is not tombstoned. Precondition: slot < num_slots().
  bool slot_live(std::uint64_t slot) const { return SlotRef(slot).live; }

  /// True iff \p slot's current payload lives in this log (added or
  /// replaced) rather than in the base. Precondition: slot < num_slots().
  bool slot_from_delta(std::uint64_t slot) const {
    return SlotRef(slot).payload.valid();
  }

  /// Version of \p slot: 0 for a base slot no record has touched, else
  /// 1 + the index of the last record that set its payload. A memoized
  /// (slot, version) pair from a previous solve is still valid iff the
  /// slot is live and its version is unchanged — the warm-start test.
  std::uint64_t slot_version(std::uint64_t slot) const {
    return SlotRef(slot).version;
  }

  /// Every tombstoned slot, in no particular order. O(slots touched by a
  /// record) — never proportional to the base size.
  std::vector<std::uint64_t> TombstonedSlots() const;

  /// View of \p slot's delta payload. Precondition: slot_from_delta(slot).
  /// The view borrows the mapping and lives as long as this log.
  SetView slot_view(std::uint64_t slot) const;

 private:
  struct Slot {
    bool live = true;
    std::uint64_t version = 0;
    SetView payload;  // the delta payload over the mapping; invalid = base
  };

  Status Load(const std::string& path);
  // The slot \p slot resolves to: an appended slot, a record-touched base
  // slot, or the shared untouched-base default. Precondition:
  // slot < num_slots().
  const Slot& SlotRef(std::uint64_t slot) const;
  // Mutable variant for replay; default-inserts an untouched base slot
  // into touched_base_ on first touch.
  Slot& MutableSlot(std::uint64_t slot);

  Status status_ =
      Status::FailedPrecondition("sscd1: delta log not opened");
  MmapFile file_;
  std::size_t universe_size_ = 0;
  std::uint64_t base_num_sets_ = 0;
  std::uint64_t record_count_ = 0;
  // The slot table is sparse on purpose: base_num_sets_ is a header claim
  // backed by nothing in *this* file, so memory must scale with the
  // replayed records, not with it. Base slots no record touched resolve
  // to a shared default (live, version 0, base payload).
  std::unordered_map<std::uint64_t, Slot> touched_base_;
  std::vector<Slot> appended_;  // slots base_num_sets_ .. num_slots()-1
};

/// Incremental sscd1 writer. Not copyable. Construct in create mode (new
/// empty log) or append mode (extend a validated existing log), call the
/// mutation methods, then Finish(). Errors are sticky.
class DeltaLogWriter {
 public:
  /// Create mode: truncates \p path to an empty log over a base of
  /// (\p universe_size, \p base_num_sets). Sets added or replaced are
  /// stored dense or sparse by SetSystem's default density rule, like the
  /// sscb1 writer.
  DeltaLogWriter(const std::string& path, std::size_t universe_size,
                 std::size_t base_num_sets);

  /// Append mode: validates the existing log at \p path (full DeltaLog
  /// replay — liveness state carries over) and positions after its last
  /// record.
  explicit DeltaLogWriter(const std::string& path);

  DeltaLogWriter(const DeltaLogWriter&) = delete;
  DeltaLogWriter& operator=(const DeltaLogWriter&) = delete;

  /// Ok iff every operation so far succeeded.
  const Status& status() const { return status_; }

  /// Universe size of the log under construction.
  std::size_t universe_size() const { return universe_size_; }

  /// Records written plus (in append mode) records already present.
  std::uint64_t record_count() const { return record_count_; }

  /// Total slots as of the last mutation (base + adds).
  std::uint64_t num_slots() const { return num_slots_; }

  /// Appends a kAddSet record; the new slot's id is num_slots()-1 after
  /// the call. The view's universe must match.
  Status AddSet(SetView set);

  /// Appends a kRemoveSet record tombstoning live slot \p slot.
  Status RemoveSet(std::uint64_t slot);

  /// Appends a kReplaceSet record swapping live slot \p slot's payload.
  Status ReplaceSet(std::uint64_t slot, SetView set);

  /// Back-patches record_count / file_size and flushes. Until Finish()
  /// the header still describes the previous consistent state, so a
  /// reader racing the appends gets a typed size-mismatch rejection
  /// (retryable — "no change yet"), never a half-appended record.
  Status Finish();

 private:
  Status Fail(Status status);
  bool WriteBytes(const void* bytes, std::size_t count);
  // Encodes and writes one payload-carrying record.
  Status WritePayloadRecord(sscd1::RecordType type, std::uint64_t target,
                            SetView set);

  Status status_;
  std::fstream out_;
  std::string path_;
  std::size_t universe_size_ = 0;
  std::uint64_t base_num_sets_ = 0;
  std::uint64_t offset_ = 0;  // current write position (== file size)
  std::uint64_t record_count_ = 0;
  // Liveness as (slot count, tombstone set): like the reader's slot
  // table, memory scales with the mutations, not the claimed base size.
  std::uint64_t num_slots_ = 0;
  std::unordered_set<std::uint64_t> dead_;
  SetPayloadEncoder payload_;
  bool finished_ = false;
};

}  // namespace streamsc

#endif  // STREAMSC_DYNAMIC_DELTA_LOG_H_
