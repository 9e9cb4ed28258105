#include "storage/mmap_set_stream.h"

#include <cstring>
#include <string_view>
#include <utility>

#include "instance/serialization.h"
#include "storage/set_payload.h"
#include "util/check.h"

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

// True iff the mapped bytes start with the sscb1 magic.
bool HasBinaryMagic(const MmapFile& file) {
  return file.size() >= sizeof(sscb1::kMagic) &&
         std::memcmp(file.data(), sscb1::kMagic, sizeof(sscb1::kMagic)) == 0;
}

// Parses the mapped bytes as ssc1 text, in place.
StatusOr<SetSystem> ParseText(const MmapFile& file) {
  return SetSystemFromString(std::string_view(
      reinterpret_cast<const char*>(file.data()), file.size()));
}

}  // namespace

MmapSetStream::MmapSetStream(const std::string& path)
    : MmapSetStream(MmapFile::Open(path)) {}

MmapSetStream::MmapSetStream(StatusOr<MmapFile> mapped) {
  if (mapped.ok()) {
    file_ = std::move(*mapped);
    status_ = Load();
  } else {
    status_ = mapped.status();
  }
  if (!status_.ok()) {
    // Leave a well-defined empty stream so accidental use without a
    // status check streams nothing instead of reading junk.
    universe_size_ = 0;
    sets_.clear();
    sparse_sets_ = 0;
  }
}

Status MmapSetStream::Load() {
  Status endian = sscb1::CheckHostEndianness();
  if (!endian.ok()) return endian;

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

StatusOr<std::unique_ptr<SetStream>> OpenInstance(const std::string& path) {
  // One open: the sniff, the sscb1 stream and the ssc1 parse all read
  // this mapping. NotFound and the non-regular-file error come from here.
  StatusOr<MmapFile> mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  if (HasBinaryMagic(*mapped)) {
    auto stream = std::make_unique<MmapSetStream>(std::move(mapped));
    if (!stream->status().ok()) return stream->status();
    return std::unique_ptr<SetStream>(std::move(stream));
  }
  // ssc1 text is parsed once; passes then stream the parsed system.
  StatusOr<SetSystem> parsed = ParseText(*mapped);
  if (!parsed.ok()) return parsed.status();
  return std::unique_ptr<SetStream>(
      std::make_unique<OwningVectorSetStream>(std::move(*parsed)));
}

StatusOr<SetSystem> LoadSetSystem(const std::string& path) {
  const StatusOr<MmapFile> mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  if (HasBinaryMagic(*mapped)) {
    return Status::InvalidArgument(
        "'" + path + "' is an sscb1 binary instance, not ssc1 text");
  }
  return ParseText(*mapped);
}

}  // namespace streamsc
