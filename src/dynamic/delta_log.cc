#include "dynamic/delta_log.h"

#include <cstring>
#include <utility>

#include "util/check.h"

namespace streamsc {

namespace {

using sscd1::FileHeader;
using sscd1::RecordHeader;

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("sscd1: " + what);
}

FileHeader MakeHeader(std::uint64_t universe_size, std::uint64_t base_num_sets,
                      std::uint64_t record_count, std::uint64_t file_size) {
  FileHeader header = {};
  std::memcpy(header.magic, sscd1::kMagic, sizeof(sscd1::kMagic));
  header.version = sscd1::kVersion;
  header.universe_size = universe_size;
  header.base_num_sets = base_num_sets;
  header.record_count = record_count;
  header.file_size = file_size;
  return header;
}

}  // namespace

// ---------------------------------------------------------------------------
// DeltaLog (reader)

DeltaLog::DeltaLog(const std::string& path) {
  status_ = Load(path);
  if (!status_.ok()) {
    // Leave a well-defined empty log so accidental use without a status
    // check replays nothing instead of reading junk.
    universe_size_ = 0;
    base_num_sets_ = 0;
    record_count_ = 0;
    touched_base_.clear();
    appended_.clear();
  }
}

const DeltaLog::Slot& DeltaLog::SlotRef(std::uint64_t slot) const {
  if (slot >= base_num_sets_) {
    return appended_[static_cast<std::size_t>(slot - base_num_sets_)];
  }
  static const Slot kUntouchedBase{};
  const auto it = touched_base_.find(slot);
  return it == touched_base_.end() ? kUntouchedBase : it->second;
}

DeltaLog::Slot& DeltaLog::MutableSlot(std::uint64_t slot) {
  if (slot >= base_num_sets_) {
    return appended_[static_cast<std::size_t>(slot - base_num_sets_)];
  }
  // Default-inserts the untouched-base state (live, version 0) on the
  // first record that touches a base slot.
  return touched_base_[slot];
}

std::vector<std::uint64_t> DeltaLog::TombstonedSlots() const {
  std::vector<std::uint64_t> dead;
  for (const auto& [slot, state] : touched_base_) {
    if (!state.live) dead.push_back(slot);
  }
  for (std::size_t i = 0; i < appended_.size(); ++i) {
    if (!appended_[i].live) dead.push_back(base_num_sets_ + i);
  }
  return dead;
}

Status DeltaLog::Load(const std::string& path) {
  Status endian = sscb1::CheckHostEndianness();
  if (!endian.ok()) return endian;

  StatusOr<MmapFile> mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  file_ = std::move(*mapped);

  if (file_.size() < sizeof(FileHeader)) {
    return Malformed("file too small for an sscd1 header");
  }
  FileHeader header;
  std::memcpy(&header, file_.data(), sizeof(header));
  Status status = sscd1::ValidateHeader(header, file_.size());
  if (!status.ok()) return status;

  // No allocation keyed on base_num_sets_: the claim is not backed by any
  // bytes of this file (unlike sscb1's offset table), so a hostile header
  // must not be able to drive a giant slot-table reservation. Slots
  // materialize lazily as records touch them.
  universe_size_ = static_cast<std::size_t>(header.universe_size);
  base_num_sets_ = header.base_num_sets;
  record_count_ = header.record_count;

  std::uint64_t offset = sizeof(FileHeader);
  for (std::uint64_t i = 0; i < record_count_; ++i) {
    const std::string where = "record " + std::to_string(i) + ": ";
    if (file_.size() - offset < sizeof(RecordHeader)) {
      return Malformed(where + "record overruns the file (truncated?)");
    }
    RecordHeader record;
    std::memcpy(&record, file_.data() + offset, sizeof(record));
    status = sscd1::ValidateRecordHeader(header, record, offset, file_.size(),
                                         i);
    if (!status.ok()) return status;

    switch (static_cast<sscd1::RecordType>(record.type)) {
      case sscd1::kRemoveSet: {
        if (record.target >= num_slots() || !slot_live(record.target)) {
          return Malformed(where + "removes a dead or out-of-range slot " +
                           std::to_string(record.target));
        }
        MutableSlot(record.target).live = false;
        break;
      }
      case sscd1::kAddSet:
      case sscd1::kReplaceSet: {
        Slot slot;
        slot.version = i + 1;
        const char* const fault = CheckSetPayload(
            file_.data() + offset + sizeof(record),
            record.rep == sscb1::kSparse, record.count, universe_size_,
            PayloadCountSource::kRecord, &slot.payload);
        if (fault != nullptr) return Malformed(where + fault);
        if (record.type == sscd1::kAddSet) {
          appended_.push_back(slot);
        } else {
          if (record.target >= num_slots() || !slot_live(record.target)) {
            return Malformed(where + "replaces a dead or out-of-range slot " +
                             std::to_string(record.target));
          }
          MutableSlot(record.target) = slot;
        }
        break;
      }
      default:
        // Unreachable: ValidateRecordHeader rejects unknown types.
        return Malformed(where + "unknown record type");
    }
    offset += record.record_bytes;
  }
  if (offset != file_.size()) {
    return Malformed("trailing bytes after the last record");
  }
  return Status::Ok();
}

SetView DeltaLog::slot_view(std::uint64_t slot) const {
  STREAMSC_CHECK(status_.ok() && slot < num_slots() && slot_from_delta(slot),
                 "DeltaLog::slot_view: invalid log, slot, or base-backed "
                 "slot");
  return SlotRef(slot).payload;
}

// ---------------------------------------------------------------------------
// DeltaLogWriter

DeltaLogWriter::DeltaLogWriter(const std::string& path,
                               std::size_t universe_size,
                               std::size_t base_num_sets)
    : path_(path),
      universe_size_(universe_size),
      base_num_sets_(base_num_sets) {
  status_ = sscb1::CheckHostEndianness();
  if (!status_.ok()) return;
  if (universe_size > sscd1::kMaxDimension ||
      base_num_sets > sscd1::kMaxDimension) {
    status_ = Status::InvalidArgument(
        "sscd1: base dimensions exceed the 2^31 format cap");
    return;
  }
  out_.open(path, std::ios::binary | std::ios::in | std::ios::out |
                      std::ios::trunc);
  if (!out_) {
    status_ = Status::Internal("cannot open '" + path + "' for writing");
    return;
  }
  num_slots_ = base_num_sets;
  // The header written up front is already *valid* for an empty log, so a
  // writer that never reaches Finish() leaves a well-formed zero-record
  // file behind, not garbage.
  const FileHeader header =
      MakeHeader(universe_size_, base_num_sets_, 0, sizeof(FileHeader));
  if (!WriteBytes(&header, sizeof(header))) {
    status_ = Status::Internal("write to '" + path + "' failed");
    return;
  }
  out_.flush();
}

DeltaLogWriter::DeltaLogWriter(const std::string& path) : path_(path) {
  // Full reader replay first: append mode refuses to extend a log it
  // could not itself read back, and the replay hands us the liveness
  // state the new records must be validated against.
  DeltaLog existing(path);
  if (!existing.status().ok()) {
    status_ = existing.status();
    return;
  }
  universe_size_ = existing.universe_size();
  base_num_sets_ = existing.base_num_sets();
  record_count_ = existing.record_count();
  num_slots_ = existing.num_slots();
  for (const std::uint64_t slot : existing.TombstonedSlots()) {
    dead_.insert(slot);
  }
  out_.open(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!out_) {
    status_ = Status::Internal("cannot open '" + path + "' for appending");
    return;
  }
  out_.seekp(0, std::ios::end);
  offset_ = static_cast<std::uint64_t>(out_.tellp());
}

Status DeltaLogWriter::Fail(Status status) {
  status_ = std::move(status);
  return status_;
}

bool DeltaLogWriter::WriteBytes(const void* bytes, std::size_t count) {
  if (count == 0) return static_cast<bool>(out_);
  out_.write(static_cast<const char*>(bytes),
             static_cast<std::streamsize>(count));
  offset_ += count;
  return static_cast<bool>(out_);
}

Status DeltaLogWriter::WritePayloadRecord(sscd1::RecordType type,
                                          std::uint64_t target, SetView set) {
  if (!set.valid() || set.size() != universe_size_) {
    return Fail(Status::InvalidArgument(
        "sscd1: set universe size mismatches the log header"));
  }
  const Count count = set.CountSet();
  const bool sparse = SetPayloadEncoder::StoresSparse(count, universe_size_);

  RecordHeader record = {};
  record.type = static_cast<std::uint16_t>(type);
  record.rep = sparse ? sscb1::kSparse : sscb1::kDense;
  record.target = target;
  record.count = static_cast<std::uint32_t>(count);
  record.record_bytes = static_cast<std::uint32_t>(
      sparse ? sscd1::SparseRecordBytes(count)
             : sscd1::DenseRecordBytes(universe_size_));
  const bool written =
      WriteBytes(&record, sizeof(record)) &&
      payload_.Write(set, sparse, [this](const void* bytes, std::size_t n) {
        return WriteBytes(bytes, n);
      });
  if (!written) {
    return Fail(Status::Internal("write to '" + path_ + "' failed"));
  }
  ++record_count_;
  return status_;
}

Status DeltaLogWriter::AddSet(SetView set) {
  if (!status_.ok()) return status_;
  if (finished_) {
    return Fail(Status::FailedPrecondition("sscd1: AddSet after Finish"));
  }
  const Status written = WritePayloadRecord(sscd1::kAddSet, 0, set);
  if (!written.ok()) return written;
  ++num_slots_;
  return status_;
}

Status DeltaLogWriter::RemoveSet(std::uint64_t slot) {
  if (!status_.ok()) return status_;
  if (finished_) {
    return Fail(Status::FailedPrecondition("sscd1: RemoveSet after Finish"));
  }
  if (slot >= num_slots_ || dead_.count(slot) != 0) {
    return Fail(Status::InvalidArgument(
        "sscd1: RemoveSet of dead or out-of-range slot " +
        std::to_string(slot)));
  }
  RecordHeader record = {};
  record.type = sscd1::kRemoveSet;
  record.target = slot;
  record.record_bytes = static_cast<std::uint32_t>(sscd1::kRemoveRecordBytes);
  if (!WriteBytes(&record, sizeof(record))) {
    return Fail(Status::Internal("write to '" + path_ + "' failed"));
  }
  ++record_count_;
  dead_.insert(slot);
  return status_;
}

Status DeltaLogWriter::ReplaceSet(std::uint64_t slot, SetView set) {
  if (!status_.ok()) return status_;
  if (finished_) {
    return Fail(Status::FailedPrecondition("sscd1: ReplaceSet after Finish"));
  }
  if (slot >= num_slots_ || dead_.count(slot) != 0) {
    return Fail(Status::InvalidArgument(
        "sscd1: ReplaceSet of dead or out-of-range slot " +
        std::to_string(slot)));
  }
  return WritePayloadRecord(sscd1::kReplaceSet, slot, set);
}

Status DeltaLogWriter::Finish() {
  if (!status_.ok()) return status_;
  if (finished_) return status_;
  finished_ = true;

  const FileHeader header =
      MakeHeader(universe_size_, base_num_sets_, record_count_, offset_);
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.flush();
  if (!out_) {
    return Fail(Status::Internal("header patch of '" + path_ + "' failed"));
  }
  out_.close();
  return status_;
}

}  // namespace streamsc
