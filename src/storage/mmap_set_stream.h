#ifndef STREAMSC_STORAGE_MMAP_SET_STREAM_H_
#define STREAMSC_STORAGE_MMAP_SET_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "instance/set_system.h"
#include "storage/binary_format.h"
#include "storage/mmap_file.h"
#include "stream/set_stream.h"
#include "util/set_span.h"
#include "util/set_view.h"
#include "util/status.h"

/// \file mmap_set_stream.h
/// MmapSetStream: a multi-pass SetStream over an sscb1 file, serving each
/// set as a zero-copy SetView (DenseSpan / SparseSpan) directly over the
/// read-only mapping:
///
///   * a pass costs zero parsing — ItemAt(i) is the i-th entry of a view
///     table built at open, and a set's bytes are only touched when the
///     algorithm reads them;
///   * views stay valid for the stream's whole lifetime, so a
///     ParallelPassEngine can shard a disk-resident pass across workers
///     by position;
///   * resident memory is O(m) view bookkeeping plus whatever pages the
///     OS keeps warm — never O(mn), preserving the streaming model's
///     honesty at multi-GB scale.
///
/// The whole file structure (header, index, every payload's bounds, sparse
/// sortedness, dense tail bits) is validated once at construction; after
/// an Ok status() no later operation can read out of bounds, so a corrupt
/// or truncated file is rejected up front instead of aborting mid-pass.
/// That validation is one sequential read of the file — a deliberate
/// trade: open costs O(file) once (still far cheaper than a single text
/// parse, and it doubles as page-cache warmup), and in exchange the
/// per-pass hot paths can serve payloads verbatim with no checks at all.

namespace streamsc {

/// A SetStream over an sscb1 file. Move-constructible via the usual
/// pattern of constructing in place; not copyable (owns the mapping).
class MmapSetStream : public SetStream {
 public:
  /// Maps \p path and validates it eagerly; check status() before
  /// streaming. An error status leaves an empty stream (0 sets).
  explicit MmapSetStream(const std::string& path);

  /// Validates an already-mapped file eagerly and takes it over. Takes an
  /// MmapFile, or the failed MmapFile::Open whose status becomes status().
  explicit MmapSetStream(StatusOr<MmapFile> mapped);

  MmapSetStream(const MmapSetStream&) = delete;
  MmapSetStream& operator=(const MmapSetStream&) = delete;

  /// Ok iff the file mapped and validated end to end.
  const Status& status() const { return status_; }

  std::size_t universe_size() const override { return universe_size_; }
  std::size_t num_sets() const override { return sets_.size(); }
  StreamItem ItemAt(std::size_t pos) const override {
    const SetId id = static_cast<SetId>(pos);
    return StreamItem{id, set(id)};
  }

  /// Random access to the \p id-th set (the index makes this O(1)).
  /// Precondition: status().ok() and id < num_sets().
  SetView set(SetId id) const;

  /// Number of sets stored sparsely (for tooling/info output).
  std::size_t sparse_sets() const { return sparse_sets_; }

  /// Mapped file size in bytes.
  std::uint64_t file_bytes() const { return file_.size(); }

 private:
  // Validates file_ and builds the view table over it.
  Status Load();

  Status status_;
  MmapFile file_;
  std::size_t universe_size_ = 0;
  std::vector<SetView> sets_;  // one view per set, over the mapping
  std::size_t sparse_sets_ = 0;
};

/// An independently counted stream over a shared, already-validated
/// MmapSetStream.
///
/// MmapSetStream is read-only after construction except for the pass
/// state the SetStream base class carries, and a run reports the passes
/// of the stream it was bound to — so concurrent readers each need their
/// own. Each MmapStreamView owns only that pass state and serves ItemAt()
/// through the shared stream's O(1) random access, so N views over one
/// stream can stream passes concurrently with zero additional
/// validation, mapping, or payload copies. This is the open-once /
/// serve-many shape the solve daemon's instance cache hands to its worker
/// slots.
///
/// The underlying stream is borrowed and must outlive every view; its
/// own pass state is never touched by views.
class MmapStreamView : public SetStream {
 public:
  /// Views \p stream, which must have an Ok status() and must outlive
  /// this view.
  explicit MmapStreamView(const MmapSetStream& stream) : stream_(stream) {}

  std::size_t universe_size() const override {
    return stream_.universe_size();
  }
  std::size_t num_sets() const override { return stream_.num_sets(); }
  StreamItem ItemAt(std::size_t pos) const override {
    const SetId id = static_cast<SetId>(pos);
    return StreamItem{id, stream_.set(id)};
  }

 private:
  const MmapSetStream& stream_;
};

/// Opens the instance at \p path as a stream; the one place that decides
/// how an instance file is read. The file is mapped once (MmapFile::Open)
/// and everything after reads that mapping: its magic picks the format,
/// sscb1 keeps the mapping (an MmapSetStream), and anything else is parsed
/// in full as ssc1 text by SetSystemFromString and served by an
/// adversarial-order VectorSetStream that owns the parsed system. Either
/// way the stream serves set id i at position i. NotFound for a missing
/// path, InvalidArgument for a non-regular file or any malformed byte.
StatusOr<std::unique_ptr<SetStream>> OpenInstance(const std::string& path);

/// Reads the ssc1 text file at \p path into a SetSystem (for tool paths
/// that need the whole system, such as the sscb1 transcoder): one mapping,
/// parsed in place by SetSystemFromString. NotFound for a missing path;
/// InvalidArgument for a non-regular file, a malformed document, or an
/// sscb1 file (the message names the format).
StatusOr<SetSystem> LoadSetSystem(const std::string& path);

}  // namespace streamsc

#endif  // STREAMSC_STORAGE_MMAP_SET_STREAM_H_
