#ifndef STREAMSC_STORAGE_BINARY_INSTANCE_WRITER_H_
#define STREAMSC_STORAGE_BINARY_INSTANCE_WRITER_H_

#include <fstream>
#include <string>
#include <vector>

#include "instance/set_system.h"
#include "storage/binary_format.h"
#include "storage/set_payload.h"
#include "util/set_view.h"
#include "util/status.h"

/// \file binary_instance_writer.h
/// BinaryInstanceWriter: produces sscb1 files (storage/binary_format.h),
/// either from an in-memory SetSystem or by transcoding an ssc1 text file
/// (loaded and validated in full by LoadSetSystem, then written, so the
/// parsed system must fit in memory).
///
/// Streaming protocol: construct with the final (n, m), call AddSet()
/// exactly m times, then Finish(). The writer streams payloads, buffers
/// only the 16-byte index entries (O(m)), appends the index at the end,
/// and back-patches the header. Errors are sticky: once any call fails,
/// every later call returns the same status and the output is not usable.

namespace streamsc {

/// Incremental sscb1 writer. Not copyable.
class BinaryInstanceWriter {
 public:
  /// Opens \p path for writing and emits a provisional header. Check
  /// status() before use. Each added set is stored dense or sparse by
  /// SetSystem's default density rule.
  BinaryInstanceWriter(const std::string& path, std::size_t universe_size,
                       std::size_t num_sets);

  BinaryInstanceWriter(const BinaryInstanceWriter&) = delete;
  BinaryInstanceWriter& operator=(const BinaryInstanceWriter&) = delete;

  /// Ok iff every operation so far succeeded.
  const Status& status() const { return status_; }

  /// Appends the next set's payload. The view's universe must match;
  /// returns the sticky status.
  Status AddSet(SetView set);

  /// Writes the index, patches the header, and flushes. Must be called
  /// after exactly num_sets AddSet() calls.
  Status Finish();

  /// Writes \p system to \p path in one call.
  static Status WriteSystem(const SetSystem& system, const std::string& path);

  /// Transcodes the ssc1 text file at \p text_path to an sscb1 file at
  /// \p binary_path. The text goes through LoadSetSystem, so it is
  /// accepted or rejected exactly as every other ssc1 reader does (NotFound
  /// if unreadable, InvalidArgument if malformed or already sscb1); nothing
  /// is written on a rejected file. The whole system is parsed into memory
  /// before the first byte is written.
  static Status TranscodeText(const std::string& text_path,
                              const std::string& binary_path);

 private:
  // Records a failure and returns it (sticky).
  Status Fail(Status status);
  // Writes raw bytes at the current position, tracking the offset.
  bool WriteBytes(const void* bytes, std::size_t count);

  Status status_;
  std::ofstream out_;
  std::string path_;
  std::size_t universe_size_ = 0;
  std::size_t num_sets_ = 0;
  std::uint64_t offset_ = 0;  // current write position
  std::vector<sscb1::SetIndexEntry> index_;
  SetPayloadEncoder payload_;
  bool finished_ = false;
};

}  // namespace streamsc

#endif  // STREAMSC_STORAGE_BINARY_INSTANCE_WRITER_H_
