#ifndef STREAMSC_UTIL_FILE_PROBE_H_
#define STREAMSC_UTIL_FILE_PROBE_H_

#include <cstdint>
#include <string>

#include "util/status.h"

/// \file file_probe.h
/// Non-blocking "is this a regular file?" probe.
///
/// Every reader in the stack that opens a user-supplied path with a
/// blocking primitive (std::ifstream, O_RDONLY open) must probe first:
/// opening a FIFO with no writer blocks the calling thread *forever*,
/// which turns a bad --instance flag or an attacker-chosen path into a
/// wedged daemon worker. stat(2) never blocks on FIFOs or devices, so
/// the probe answers immediately.

namespace streamsc {

/// Returns Ok iff \p path names an existing regular file.
///
///   * missing path        -> NotFound
///   * FIFO / directory /
///     device / socket     -> InvalidArgument naming what the path is
///
/// On platforms without stat(2) the probe is a no-op returning Ok; the
/// caller's own open supplies the error there.
Status ProbeRegularFile(const std::string& path);

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
