#ifndef STREAMSC_UTIL_FILE_PROBE_H_
#define STREAMSC_UTIL_FILE_PROBE_H_

#include <cstdint>
#include <string>

#include "util/status.h"

/// \file file_probe.h
/// stat(2)-level facts about a path: the error every opener reports for a
/// path that is not a regular file, and the signature watch mode polls
/// without opening the path.
///
/// Nothing here gates an open. Instance files and delta logs are read only
/// through MmapFile::Open (storage/mmap_file.h), which opens O_NONBLOCK and
/// refuses a FIFO, directory, device or socket from fstat(2) without
/// waiting, so no reader needs to stat a path before opening it.

namespace streamsc {

/// The InvalidArgument every opener reports for a path that exists but is
/// not a regular file, naming what it is ("a FIFO", "a directory", ...).
/// \p st_mode is the path's stat(2) mode.
Status NotRegularFileError(const std::string& path, std::uint32_t st_mode);

/// A point-in-time identity snapshot of a path: existence, byte size, and
/// modification time. Two equal signatures mean "no observable change" at
/// stat(2) granularity — the polling primitive behind watch mode, which
/// deliberately avoids inotify so it works on any filesystem (NFS,
/// overlayfs, containers) with zero extra descriptors.
struct FileSignature {
  bool exists = false;
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;  ///< Nanoseconds where the platform has them,
                              ///< else whole seconds scaled up.

  friend bool operator==(const FileSignature& a,
                         const FileSignature& b) = default;
};

/// Stats \p path and returns its signature. A missing (or stat-failing)
/// path yields {exists=false, 0, 0} — a valid, comparable value, so a
/// watch loop treats deletion as just another change. Never blocks.
FileSignature ProbeSignature(const std::string& path);

}  // namespace streamsc

#endif  // STREAMSC_UTIL_FILE_PROBE_H_
