#include "storage/mmap_set_stream.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "instance/serialization.h"
#include "storage/set_payload.h"
#include "util/check.h"
#include "util/file_probe.h"

namespace streamsc {

namespace {

using sscb1::FileHeader;
using sscb1::SetIndexEntry;

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("sscb1: " + what);
}

// The SetSystem an OwningVectorSetStream streams. A base listed before
// VectorSetStream, so the system is built before the stream binds it.
struct OwnedSystem {
  SetSystem system;
};

// An adversarial-order VectorSetStream over a SetSystem it owns: an ssc1
// instance loaded by OpenInstance.
class OwningVectorSetStream : private OwnedSystem, public VectorSetStream {
 public:
  explicit OwningVectorSetStream(SetSystem system)
      : OwnedSystem{std::move(system)},
        VectorSetStream(OwnedSystem::system) {}
};

}  // namespace

MmapSetStream::MmapSetStream(const std::string& path) {
  status_ = Load(path);
  if (!status_.ok()) {
    // Leave a well-defined empty stream so accidental use without a
    // status check streams nothing instead of reading junk.
    universe_size_ = 0;
    sets_.clear();
    sparse_sets_ = 0;
  }
}

Status MmapSetStream::Load(const std::string& path) {
  Status endian = sscb1::CheckHostEndianness();
  if (!endian.ok()) return endian;

  StatusOr<MmapFile> mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  file_ = std::move(*mapped);

  if (file_.size() < sizeof(FileHeader)) {
    return Malformed("file too small for an sscb1 header");
  }
  // The header/index are copied out of the mapping into aligned structs;
  // payload spans read in place (their 8-byte alignment is validated).
  FileHeader header;
  std::memcpy(&header, file_.data(), sizeof(header));
  Status status = sscb1::ValidateHeader(header, file_.size());
  if (!status.ok()) return status;

  universe_size_ = static_cast<std::size_t>(header.universe_size);
  const std::size_t m = static_cast<std::size_t>(header.num_sets);
  sets_.reserve(m);

  std::vector<SetIndexEntry> entries(m);
  if (m > 0) {
    std::memcpy(entries.data(), file_.data() + header.index_offset,
                m * sizeof(SetIndexEntry));
  }
  for (std::size_t id = 0; id < m; ++id) {
    status = sscb1::ValidateIndexEntry(header, entries[id], id);
    if (!status.ok()) return status;
  }

  for (std::size_t id = 0; id < m; ++id) {
    const SetIndexEntry& entry = entries[id];
    const bool sparse = entry.rep == sscb1::kSparse;
    SetView view;
    const char* const fault =
        CheckSetPayload(file_.data() + entry.offset, sparse, entry.count,
                        universe_size_, PayloadCountSource::kIndex, &view);
    if (fault != nullptr) {
      return Malformed("set " + std::to_string(id) + ": " + fault);
    }
    sets_.push_back(view);
    if (sparse) ++sparse_sets_;
  }
  return Status::Ok();
}

SetView MmapSetStream::set(SetId id) const {
  STREAMSC_CHECK(status_.ok() && id < sets_.size(),
                 "MmapSetStream::set: invalid stream or id");
  return sets_[id];
}

bool IsBinaryInstanceFile(const std::string& path) {
  // Probe before the blocking open: an ifstream open of an unfed FIFO
  // hangs forever, and format sniffing runs before any hardened reader
  // gets a look at the path.
  if (!ProbeRegularFile(path).ok()) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  unsigned char magic[sizeof(sscb1::kMagic)] = {};
  in.read(reinterpret_cast<char*>(magic), sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, sscb1::kMagic, sizeof(magic)) == 0;
}

StatusOr<std::unique_ptr<SetStream>> OpenInstance(const std::string& path) {
  if (IsBinaryInstanceFile(path)) {
    auto stream = std::make_unique<MmapSetStream>(path);
    if (!stream->status().ok()) return stream->status();
    return std::unique_ptr<SetStream>(std::move(stream));
  }
  // ssc1 text goes through the one validating parser, once; passes then
  // stream the loaded system.
  StatusOr<SetSystem> loaded = LoadSetSystem(path);
  if (!loaded.ok()) return loaded.status();
  return std::unique_ptr<SetStream>(
      std::make_unique<OwningVectorSetStream>(std::move(*loaded)));
}

StatusOr<SetSystem> LoadBinarySetSystem(const std::string& path) {
  MmapSetStream stream(path);
  if (!stream.status().ok()) return stream.status();
  SetSystem system(stream.universe_size());
  stream.BeginPass();
  StreamItem item;
  while (stream.Next(&item)) system.AddSetFromView(item.set);
  return system;
}

}  // namespace streamsc
