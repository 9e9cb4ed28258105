#ifndef STREAMSC_STORAGE_INSTANCE_CACHE_H_
#define STREAMSC_STORAGE_INSTANCE_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/mmap_set_stream.h"
#include "util/status.h"

/// \file instance_cache.h
/// InstanceCache: open-once / serve-many sscb1 instances, with live
/// reload.
///
/// Opening an sscb1 file costs one full sequential validation read
/// (deliberately — see mmap_set_stream.h); a service that re-opened the
/// instance per request would pay that on every solve. The cache opens
/// and validates each path exactly once per (re)load, keyed by name, and
/// hands out Snapshot handles: a shared, immutable mapping plus the
/// generation it was loaded under. Any number of readers may share one
/// snapshot's stream (read-only; each view owns only its pass state).
///
/// Reload model: Refresh() upserts a name — the new file is opened and
/// validated *outside* the lock, then swapped in under it with a fresh
/// generation; Remove() retires a name. Neither invalidates snapshots
/// already handed out: the shared_ptr keeps the old mapping alive until
/// the last in-flight reader drops it, so solves started before a reload
/// finish on the bytes they began with. Readers detect staleness by
/// comparing generations (each successful Add/Refresh gets a globally
/// unique one, so retire-then-re-add never aliases an old binding).
///
/// Thread safety: all members are mutex-guarded and safe to call
/// concurrently, including Refresh/Remove racing Get from serving
/// threads.

namespace streamsc {

/// A named, reloadable set of open instances.
class InstanceCache {
 public:
  /// One handed-out instance binding: the mapping (shared — keeps the
  /// bytes alive independent of later reloads) and the generation it was
  /// loaded under.
  struct Snapshot {
    std::shared_ptr<const MmapSetStream> stream;
    std::uint64_t generation = 0;
  };

  InstanceCache() = default;

  InstanceCache(const InstanceCache&) = delete;
  InstanceCache& operator=(const InstanceCache&) = delete;

  /// Opens and validates \p path as an sscb1 instance under \p name.
  /// Re-adding an existing name is InvalidArgument (use Refresh() to
  /// replace); a file that fails to open or validate reports its status
  /// and caches nothing.
  Status Add(const std::string& name, const std::string& path);

  /// Upserts \p name from \p path: opens and validates the file outside
  /// the lock, then swaps it in under a fresh generation (whether or not
  /// the name existed). On failure the previous entry, if any, is kept
  /// untouched — a bad reload never takes a serving instance down.
  Status Refresh(const std::string& name, const std::string& path);

  /// Retires \p name; NotFound if it is not registered. Snapshots already
  /// handed out stay valid (shared ownership).
  Status Remove(const std::string& name);

  /// The current snapshot of \p name, or NotFound. The snapshot's stream
  /// stays valid as long as the snapshot is held, across any number of
  /// later Refresh/Remove calls.
  StatusOr<Snapshot> Get(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Number of cached instances.
  std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const MmapSetStream> stream;
    std::uint64_t generation = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  std::uint64_t next_generation_ = 1;
};

}  // namespace streamsc

#endif  // STREAMSC_STORAGE_INSTANCE_CACHE_H_
