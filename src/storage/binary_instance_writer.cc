#include "storage/binary_instance_writer.h"

#include <cstring>

#include "storage/mmap_set_stream.h"

namespace streamsc {

namespace {

using sscb1::FileHeader;
using sscb1::SetIndexEntry;

FileHeader ProvisionalHeader(std::size_t universe_size, std::size_t num_sets) {
  FileHeader header = {};
  std::memcpy(header.magic, sscb1::kMagic, sizeof(sscb1::kMagic));
  header.version = sscb1::kVersion;
  header.universe_size = universe_size;
  header.num_sets = num_sets;
  // index_offset / file_size are back-patched by Finish().
  return header;
}

}  // namespace

BinaryInstanceWriter::BinaryInstanceWriter(const std::string& path,
                                           std::size_t universe_size,
                                           std::size_t num_sets)
    : path_(path), universe_size_(universe_size), num_sets_(num_sets) {
  status_ = sscb1::CheckHostEndianness();
  if (!status_.ok()) return;
  if (universe_size > sscb1::kMaxDimension || num_sets > sscb1::kMaxDimension) {
    status_ = Status::InvalidArgument(
        "sscb1: instance dimensions exceed the 2^31 format cap");
    return;
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    status_ = Status::Internal("cannot open '" + path + "' for writing");
    return;
  }
  index_.reserve(num_sets);
  const FileHeader header = ProvisionalHeader(universe_size, num_sets);
  if (!WriteBytes(&header, sizeof(header))) {
    status_ = Status::Internal("write to '" + path + "' failed");
  }
}

Status BinaryInstanceWriter::Fail(Status status) {
  status_ = std::move(status);
  return status_;
}

bool BinaryInstanceWriter::WriteBytes(const void* bytes, std::size_t count) {
  if (count == 0) return static_cast<bool>(out_);  // empty payloads/indexes
  out_.write(static_cast<const char*>(bytes),
             static_cast<std::streamsize>(count));
  offset_ += count;
  return static_cast<bool>(out_);
}

Status BinaryInstanceWriter::AddSet(SetView set) {
  if (!status_.ok()) return status_;
  if (finished_) {
    return Fail(Status::FailedPrecondition("AddSet after Finish"));
  }
  if (!set.valid() || set.size() != universe_size_) {
    return Fail(Status::InvalidArgument(
        "sscb1: set universe size mismatches the file header"));
  }
  if (index_.size() >= num_sets_) {
    return Fail(Status::FailedPrecondition(
        "sscb1: more AddSet calls than the declared set count"));
  }

  const Count count = set.CountSet();
  const bool sparse = SetPayloadEncoder::StoresSparse(count, universe_size_);

  SetIndexEntry entry = {};
  entry.offset = offset_;
  entry.count = static_cast<std::uint32_t>(count);
  entry.rep = sparse ? sscb1::kSparse : sscb1::kDense;

  const bool written =
      payload_.Write(set, sparse, [this](const void* bytes, std::size_t n) {
        return WriteBytes(bytes, n);
      });
  if (!written) {
    return Fail(Status::Internal("write to '" + path_ + "' failed"));
  }
  index_.push_back(entry);
  return status_;
}

Status BinaryInstanceWriter::Finish() {
  if (!status_.ok()) return status_;
  if (finished_) return status_;
  if (index_.size() != num_sets_) {
    return Fail(Status::FailedPrecondition(
        "sscb1: Finish after " + std::to_string(index_.size()) +
        " AddSet calls; header declares " + std::to_string(num_sets_)));
  }
  finished_ = true;

  FileHeader header = ProvisionalHeader(universe_size_, num_sets_);
  header.index_offset = offset_;
  if (!WriteBytes(index_.data(), index_.size() * sizeof(SetIndexEntry))) {
    return Fail(Status::Internal("write to '" + path_ + "' failed"));
  }
  header.file_size = offset_;

  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.flush();
  if (!out_) {
    return Fail(Status::Internal("header patch of '" + path_ + "' failed"));
  }
  out_.close();
  return status_;
}

Status BinaryInstanceWriter::WriteSystem(const SetSystem& system,
                                         const std::string& path) {
  BinaryInstanceWriter writer(path, system.universe_size(), system.num_sets());
  for (SetId id = 0; id < system.num_sets(); ++id) {
    if (!writer.AddSet(system.set(id)).ok()) break;
  }
  if (!writer.status().ok()) return writer.status();
  return writer.Finish();
}

Status BinaryInstanceWriter::TranscodeText(const std::string& text_path,
                                           const std::string& binary_path) {
  const StatusOr<SetSystem> system = LoadSetSystem(text_path);
  if (!system.ok()) return system.status();
  return WriteSystem(*system, binary_path);
}

}  // namespace streamsc
