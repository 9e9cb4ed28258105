#include "util/file_probe.h"

#if defined(__unix__) || defined(__APPLE__)
#define STREAMSC_HAVE_STAT 1
#include <sys/stat.h>
#else
#define STREAMSC_HAVE_STAT 0
#endif

namespace streamsc {

#if STREAMSC_HAVE_STAT

Status NotRegularFileError(const std::string& path, std::uint32_t st_mode) {
  // Say what the path actually is, so "why won't it load my file" is
  // answerable from the message.
  const char* what = S_ISDIR(st_mode)    ? "a directory"
                     : S_ISFIFO(st_mode) ? "a FIFO"
                     : S_ISCHR(st_mode)  ? "a character device"
                     : S_ISBLK(st_mode)  ? "a block device"
                     : S_ISSOCK(st_mode) ? "a socket"
                                         : "not a regular file";
  return Status::InvalidArgument("cannot open '" + path + "': it is " +
                                 what + " (only regular files can be read)");
}

FileSignature ProbeSignature(const std::string& path) {
  FileSignature sig;
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return sig;
  sig.exists = true;
  sig.size = static_cast<std::uint64_t>(st.st_size);
#if defined(__APPLE__)
  sig.mtime_ns = static_cast<std::int64_t>(st.st_mtimespec.tv_sec) *
                     1'000'000'000 +
                 st.st_mtimespec.tv_nsec;
#else
  sig.mtime_ns =
      static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
      st.st_mtim.tv_nsec;
#endif
  return sig;
}

#else  // !STREAMSC_HAVE_STAT

Status NotRegularFileError(const std::string& path, std::uint32_t st_mode) {
  (void)st_mode;
  return Status::InvalidArgument("cannot open '" + path +
                                 "': not a regular file");
}

FileSignature ProbeSignature(const std::string& path) {
  (void)path;
  return FileSignature{};
}

#endif  // STREAMSC_HAVE_STAT

}  // namespace streamsc
