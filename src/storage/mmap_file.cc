#include "storage/mmap_file.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/file_probe.h"

#if defined(__unix__) || defined(__APPLE__)
#define STREAMSC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define STREAMSC_HAVE_MMAP 0
#include <fstream>
#endif

namespace streamsc {

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    owns_mapping_ = std::exchange(other.owns_mapping_, false);
    fallback_ = std::move(other.fallback_);
    if (!fallback_.empty()) data_ = fallback_.data();
  }
  return *this;
}

void MmapFile::Reset() {
#if STREAMSC_HAVE_MMAP
  if (owns_mapping_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  owns_mapping_ = false;
  fallback_.clear();
  fallback_.shrink_to_fit();
}

#if STREAMSC_HAVE_MMAP

StatusOr<MmapFile> MmapFile::Open(const std::string& path) {
  // O_NONBLOCK makes opening a FIFO with no writer return immediately
  // instead of blocking this thread forever (a daemon handed a FIFO path
  // must reject it, not hang); O_CLOEXEC keeps the descriptor out of any
  // fork/exec'd child during the open window. Both flags are cleared from
  // the file's semantics below: the fd is read via mmap only and closed
  // before returning.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) {
    return Status::NotFound("cannot open '" + path +
                            "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::Internal("fstat('" + path + "') failed: " +
                                           std::strerror(errno));
    ::close(fd);
    return status;
  }
  // Only regular files can be mapped: a directory would fail later with a
  // confusing mmap/read error, and a FIFO or device node has no stable
  // byte range at all.
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return NotRegularFileError(path, st.st_mode);
  }
  // Drop O_NONBLOCK now that the probe is done — mmap of a regular file
  // never blocks, but keep the descriptor's semantics conventional.
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  MmapFile file;
  file.mapped_ = true;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ > 0) {
    void* addr = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const Status status = Status::Internal("mmap('" + path + "') failed: " +
                                             std::strerror(errno));
      ::close(fd);
      return status;
    }
    file.data_ = static_cast<const std::byte*>(addr);
    file.owns_mapping_ = true;
  }
  // The mapping holds its own reference to the pages; the descriptor is
  // no longer needed.
  ::close(fd);
  return file;
}

#else  // !STREAMSC_HAVE_MMAP

StatusOr<MmapFile> MmapFile::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  const std::streamoff end = in.tellg();
  MmapFile file;
  file.mapped_ = true;
  file.fallback_.resize(static_cast<std::size_t>(end));
  if (end > 0) {
    in.seekg(0);
    if (!in.read(reinterpret_cast<char*>(file.fallback_.data()), end)) {
      return Status::Internal("read of '" + path + "' failed");
    }
    file.data_ = file.fallback_.data();
    file.size_ = file.fallback_.size();
  }
  return file;
}

#endif  // STREAMSC_HAVE_MMAP

}  // namespace streamsc
