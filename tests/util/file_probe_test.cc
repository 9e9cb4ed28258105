// ProbeRegularFile: the non-blocking gate every blocking open in the
// stack hides behind. The regression pinned here is the sniff-path hang:
// the text readers open with std::ifstream, and an ifstream open of an
// unfed FIFO blocks forever — so a FIFO handed to `workload_tool solve`
// (or a daemon --instance flag) wedged the process even after
// MmapFile::Open itself was hardened. The probe must answer immediately
// for every file kind.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>

#include "testing/scoped_temp_dir.h"
#include "util/file_probe.h"

namespace streamsc {
namespace {

using testing::ScopedTempDir;

TEST(FileProbeTest, RegularFileIsOk) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("plain.txt");
  std::ofstream(path) << "hello";
  EXPECT_TRUE(ProbeRegularFile(path).ok());
}

TEST(FileProbeTest, EmptyRegularFileIsOk) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("empty");
  std::ofstream touch(path);
  touch.close();
  EXPECT_TRUE(ProbeRegularFile(path).ok());
}

TEST(FileProbeTest, MissingPathIsNotFound) {
  ScopedTempDir dir;
  const Status status = ProbeRegularFile(dir.FilePath("absent"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(FileProbeTest, FifoIsInvalidArgumentWithoutBlocking) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("pipe.fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  // No writer ever attaches; a blocking probe would hang here.
  const Status status = ProbeRegularFile(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("FIFO"), std::string::npos)
      << status.ToString();
}

TEST(FileProbeTest, DirectoryIsInvalidArgument) {
  ScopedTempDir dir;
  const Status status = ProbeRegularFile(dir.path().string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("directory"), std::string::npos)
      << status.ToString();
}

TEST(FileProbeTest, CharacterDeviceIsInvalidArgument) {
  const Status status = ProbeRegularFile("/dev/null");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("character device"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace streamsc
