// ProbeSignature: the stat(2) snapshot watch mode polls to notice that a
// base or delta file changed. A missing path must yield the empty
// signature (so deletion reads as a change, not an error), an untouched
// file must keep its signature, and a write that grows the file must
// change it. The non-regular-file cases of opening a path are pinned by
// MmapFileTest, the one opener.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "testing/scoped_temp_dir.h"
#include "util/file_probe.h"

namespace streamsc {
namespace {

using testing::ScopedTempDir;

TEST(FileProbeTest, MissingPathHasTheEmptySignature) {
  ScopedTempDir dir;
  EXPECT_EQ(ProbeSignature(dir.FilePath("absent")), FileSignature{});
}

TEST(FileProbeTest, UnchangedFileKeepsItsSignature) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("plain.txt");
  std::ofstream(path) << "hello";
  const FileSignature first = ProbeSignature(path);
  EXPECT_TRUE(first.exists);
  EXPECT_EQ(first.size, 5u);
  EXPECT_EQ(ProbeSignature(path), first);
}

TEST(FileProbeTest, AppendingChangesSizeAndSignature) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("grows.txt");
  std::ofstream(path) << "hello";
  const FileSignature before = ProbeSignature(path);
  std::ofstream(path, std::ios::app) << " world";
  const FileSignature after = ProbeSignature(path);
  EXPECT_TRUE(after.exists);
  EXPECT_EQ(after.size, 11u);
  EXPECT_NE(after, before);
}

}  // namespace
}  // namespace streamsc
