#include "instance/serialization.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "instance/generators.h"
#include "storage/mmap_set_stream.h"
#include "testing/scoped_temp_dir.h"
#include "util/random.h"

namespace streamsc {
namespace {

SetSystem SmallSystem() {
  SetSystem system(6);
  system.AddSetFromIndices({0, 1, 2});
  system.AddSetFromIndices({3});
  system.AddSetFromIndices({});
  system.AddSetFromIndices({4, 5});
  return system;
}

bool SameSystem(const SetSystem& a, const SetSystem& b) {
  if (a.universe_size() != b.universe_size()) return false;
  if (a.num_sets() != b.num_sets()) return false;
  for (SetId id = 0; id < a.num_sets(); ++id) {
    if (!(a.set(id) == b.set(id))) return false;
  }
  return true;
}

TEST(SerializationTest, RoundTripSmallSystem) {
  const SetSystem original = SmallSystem();
  const StatusOr<SetSystem> parsed =
      SetSystemFromString(SetSystemToString(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(SameSystem(original, *parsed));
}

TEST(SerializationTest, HeaderFormat) {
  const std::string text = SetSystemToString(SmallSystem());
  EXPECT_EQ(text.rfind("ssc1 6 4", 0), 0u) << text;
}

TEST(SerializationTest, EmptySystemRoundTrips) {
  const SetSystem empty(0);
  const StatusOr<SetSystem> parsed =
      SetSystemFromString(SetSystemToString(empty));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->universe_size(), 0u);
  EXPECT_EQ(parsed->num_sets(), 0u);
}

TEST(SerializationTest, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# generated by a tool\n"
      "\n"
      "ssc1 4 2\n"
      "  # the first set\n"
      "2 0 3\n"
      "\n"
      "1 2\n"
      "# trailing comment\n";
  const StatusOr<SetSystem> parsed = SetSystemFromString(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_sets(), 2u);
  EXPECT_TRUE(parsed->set(0).Test(0));
  EXPECT_TRUE(parsed->set(0).Test(3));
  EXPECT_TRUE(parsed->set(1).Test(2));
}

TEST(SerializationTest, RejectsBadMagic) {
  const StatusOr<SetSystem> parsed = SetSystemFromString("ssc9 4 1\n1 0\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, RejectsEmptyInput) {
  EXPECT_FALSE(SetSystemFromString("").ok());
  EXPECT_FALSE(SetSystemFromString("# only comments\n").ok());
}

TEST(SerializationTest, RejectsOutOfRangeElement) {
  const StatusOr<SetSystem> parsed = SetSystemFromString("ssc1 4 1\n1 4\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("out of range"),
            std::string::npos);
}

TEST(SerializationTest, RejectsMissingSets) {
  const StatusOr<SetSystem> parsed = SetSystemFromString("ssc1 4 3\n1 0\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("set lines"), std::string::npos);
}

TEST(SerializationTest, RejectsShortSetLine) {
  const StatusOr<SetSystem> parsed =
      SetSystemFromString("ssc1 4 1\n3 0 1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("lists fewer"), std::string::npos);
}

TEST(SerializationTest, RejectsTrailingTokensOnSetLine) {
  EXPECT_FALSE(SetSystemFromString("ssc1 4 1\n1 0 junk\n").ok());
  EXPECT_FALSE(SetSystemFromString("ssc1 4 1\n1 0 2\n").ok());
}

TEST(SerializationTest, RejectsTrailingContent) {
  const StatusOr<SetSystem> parsed =
      SetSystemFromString("ssc1 4 1\n1 0\n1 1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("trailing content"),
            std::string::npos);
}

TEST(SerializationTest, RejectsDuplicateElements) {
  const StatusOr<SetSystem> parsed =
      SetSystemFromString("ssc1 4 1\n2 1 1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("duplicate"), std::string::npos);
}

TEST(SerializationTest, FileRoundTrip) {
  Rng rng(7);
  const SetSystem original = PlantedCoverInstance(128, 12, 3, rng);
  const std::string path = ::testing::TempDir() + "/streamsc_roundtrip.ssc";
  ASSERT_TRUE(SaveSetSystem(original, path).ok());
  const StatusOr<SetSystem> loaded = LoadSetSystem(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(SameSystem(original, *loaded));
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadMissingFileIsNotFound) {
  const StatusOr<SetSystem> loaded =
      LoadSetSystem("/nonexistent/dir/foo.ssc");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SerializationTest, LoadFifoIsInvalidArgumentWithoutHanging) {
  // Every ssc1 solve source loads through here, so a FIFO path must come
  // straight back with a typed error instead of blocking on the open.
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("pipe.fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  const StatusOr<SetSystem> loaded = LoadSetSystem(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, SaveToBadPathFails) {
  EXPECT_FALSE(SaveSetSystem(SmallSystem(), "/nonexistent/dir/foo.ssc").ok());
}

// Round-trip property over every generator family.
class SerializationRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializationRoundTripTest, GeneratorRoundTrips) {
  Rng rng(100 + GetParam());
  SetSystem original(0);
  switch (GetParam() % 4) {
    case 0:
      original = PlantedCoverInstance(200, 20, 4, rng);
      break;
    case 1:
      original = UniformRandomInstance(150, 15, 30, rng);
      break;
    case 2:
      original = ZipfInstance(180, 18, 1.1, 90, rng);
      break;
    default:
      original = BlogTopicInstance(160, 24, 0.2, rng);
      break;
  }
  const StatusOr<SetSystem> parsed =
      SetSystemFromString(SetSystemToString(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(SameSystem(original, *parsed));
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, SerializationRoundTripTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace streamsc
