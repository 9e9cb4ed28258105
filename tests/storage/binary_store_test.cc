#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "instance/generators.h"
#include "instance/serialization.h"
#include "instance/set_system.h"
#include "storage/binary_format.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "testing/scoped_temp_dir.h"
#include "util/random.h"

namespace streamsc {
namespace {

// Writes raw bytes to a file (for corruption fixtures).
void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Full round-trip check: write `system` as sscb1, mmap it back, and
// require every set (and the shape) to match.
void ExpectRoundTrip(const SetSystem& system, const std::string& path) {
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, path).ok());
  MmapSetStream stream(path);
  ASSERT_TRUE(stream.status().ok()) << stream.status().ToString();
  EXPECT_EQ(stream.universe_size(), system.universe_size());
  ASSERT_EQ(stream.num_sets(), system.num_sets());
  // Random access...
  for (SetId id = 0; id < system.num_sets(); ++id) {
    EXPECT_TRUE(stream.set(id) == system.set(id)) << "set " << id;
  }
  // ...and stream order.
  stream.BeginPass();
  StreamItem item;
  SetId expected = 0;
  while (stream.Next(&item)) {
    EXPECT_EQ(item.id, expected);
    EXPECT_TRUE(item.set == system.set(expected));
    ++expected;
  }
  EXPECT_EQ(expected, system.num_sets());
}

TEST(BinaryStoreTest, RoundTripsHandPickedEdgeCases) {
  testing::ScopedTempDir dir;
  // Universe sizes around word boundaries; empty, full, singleton sets.
  const std::size_t sizes[] = {1, 63, 64, 65, 128, 200};
  int file_index = 0;
  for (const std::size_t n : sizes) {
    SetSystem system(n);
    system.AddSet(DynamicBitset(n));       // empty
    system.AddSet(DynamicBitset::Full(n)); // full
    system.AddSetFromIndices({0});
    system.AddSetFromIndices({static_cast<ElementId>(n - 1)});
    ExpectRoundTrip(system,
                    dir.FilePath("edge" + std::to_string(file_index++) +
                                 ".sscb1"));
  }
}

TEST(BinaryStoreTest, RoundTripsEmptySystem) {
  testing::ScopedTempDir dir;
  ExpectRoundTrip(SetSystem(16), dir.FilePath("empty.sscb1"));
}

TEST(BinaryStoreTest, RoundTripPropertyOnRandomSystems) {
  testing::ScopedTempDir dir;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(1000 + seed);
    const std::size_t n = 16 + rng.UniformInt(300);
    const std::size_t m = 1 + rng.UniformInt(40);
    SetSystem system(n);
    for (std::size_t i = 0; i < m; ++i) {
      // Mix densities so both representations appear in one file.
      const double density = (seed + i) % 3 == 0 ? 0.5 : 0.01;
      std::vector<ElementId> members;
      for (std::size_t e = 0; e < n; ++e) {
        if (rng.Bernoulli(density)) {
          members.push_back(static_cast<ElementId>(e));
        }
      }
      system.AddSetFromIndices(members);
    }
    ExpectRoundTrip(system,
                    dir.FilePath("rand" + std::to_string(seed) + ".sscb1"));
  }
}

TEST(BinaryStoreTest, TranscodeMatchesDirectWrite) {
  testing::ScopedTempDir dir;
  Rng rng(5);
  const SetSystem system = PlantedCoverInstance(512, 48, 6, rng);

  const std::string text_path = dir.FilePath("instance.ssc");
  const std::string direct_path = dir.FilePath("direct.sscb1");
  const std::string transcoded_path = dir.FilePath("transcoded.sscb1");
  ASSERT_TRUE(SaveSetSystem(system, text_path).ok());
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, direct_path).ok());
  ASSERT_TRUE(
      BinaryInstanceWriter::TranscodeText(text_path, transcoded_path).ok());

  // The streaming transcode and the in-memory write must agree byte for
  // byte: representation choice depends only on (count, n).
  EXPECT_EQ(ReadFile(direct_path), ReadFile(transcoded_path));

  MmapSetStream stream(transcoded_path);
  ASSERT_TRUE(stream.status().ok());
  for (SetId id = 0; id < system.num_sets(); ++id) {
    EXPECT_TRUE(stream.set(id) == system.set(id));
  }
}

TEST(BinaryStoreTest, TranscodeRejectsMissingAndMalformedText) {
  testing::ScopedTempDir dir;
  EXPECT_EQ(BinaryInstanceWriter::TranscodeText(dir.FilePath("nope.ssc"),
                                                dir.FilePath("out.sscb1"))
                .code(),
            StatusCode::kNotFound);
  const std::string bad = dir.FilePath("bad.ssc");
  WriteFile(bad, "not an instance\n");
  EXPECT_EQ(
      BinaryInstanceWriter::TranscodeText(bad, dir.FilePath("out2.sscb1"))
          .code(),
      StatusCode::kInvalidArgument);
  // Truncated body: header promises 3 sets, file has 1.
  const std::string truncated = dir.FilePath("trunc.ssc");
  WriteFile(truncated, "ssc1 8 3\n2 0 1\n");
  EXPECT_EQ(BinaryInstanceWriter::TranscodeText(truncated,
                                                dir.FilePath("out3.sscb1"))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BinaryStoreTest, TranscodeRejectsFifoWithoutHanging) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("pipe.fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  const std::string out = dir.FilePath("out.sscb1");
  EXPECT_EQ(BinaryInstanceWriter::TranscodeText(path, out).code(),
            StatusCode::kInvalidArgument);
  // Nothing was loaded, so nothing may have been written.
  EXPECT_FALSE(std::ifstream(out).good());
}

TEST(BinaryStoreTest, WriterEnforcesSetCountContract) {
  testing::ScopedTempDir dir;
  const DynamicBitset set(8);
  {
    BinaryInstanceWriter writer(dir.FilePath("short.sscb1"), 8, 2);
    ASSERT_TRUE(writer.AddSet(SetView(set)).ok());
    EXPECT_EQ(writer.Finish().code(), StatusCode::kFailedPrecondition);
  }
  {
    BinaryInstanceWriter writer(dir.FilePath("long.sscb1"), 8, 1);
    ASSERT_TRUE(writer.AddSet(SetView(set)).ok());
    EXPECT_EQ(writer.AddSet(SetView(set)).code(),
              StatusCode::kFailedPrecondition);
  }
  {
    BinaryInstanceWriter writer(dir.FilePath("mismatch.sscb1"), 8, 1);
    const DynamicBitset wrong(16);
    EXPECT_EQ(writer.AddSet(SetView(wrong)).code(),
              StatusCode::kInvalidArgument);
  }
}

// ---- Corrupt-file rejection ------------------------------------------------

// Builds a small valid file and returns its bytes.
std::string ValidFileBytes(const std::string& path) {
  SetSystem system(100);
  system.AddSetFromIndices({1, 2, 3});           // sparse
  std::vector<ElementId> dense_members;
  for (ElementId e = 0; e < 60; ++e) dense_members.push_back(e);
  system.AddSetFromIndices(dense_members);       // dense
  EXPECT_TRUE(BinaryInstanceWriter::WriteSystem(system, path).ok());
  return ReadFile(path);
}

void ExpectRejected(const std::string& path, const std::string& bytes) {
  WriteFile(path, bytes);
  MmapSetStream stream(path);
  EXPECT_FALSE(stream.status().ok()) << "should have been rejected";
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.num_sets(), 0u);  // rejected stream streams nothing
}

TEST(BinaryStoreTest, RejectsBadMagicAndVersion) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("corrupt.sscb1");
  const std::string good = ValidFileBytes(path);

  std::string bad_magic = good;
  bad_magic[0] = 'x';
  ExpectRejected(path, bad_magic);

  std::string bad_version = good;
  bad_version[8] = 9;  // version field right after the 8-byte magic
  ExpectRejected(path, bad_version);
}

TEST(BinaryStoreTest, RejectsTruncation) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("trunc.sscb1");
  const std::string good = ValidFileBytes(path);
  // Any strict prefix must be rejected: either too small for the header
  // or a header whose file_size no longer matches.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, sizeof(sscb1::FileHeader) - 1,
        sizeof(sscb1::FileHeader), good.size() - 1,
        good.size() - sizeof(sscb1::SetIndexEntry)}) {
    WriteFile(path, good.substr(0, keep));
    MmapSetStream stream(path);
    EXPECT_FALSE(stream.status().ok()) << "kept " << keep << " bytes";
  }
}

TEST(BinaryStoreTest, RejectsOutOfRangeOffsetsAndCounts) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("offsets.sscb1");
  const std::string good = ValidFileBytes(path);

  sscb1::FileHeader header;
  std::memcpy(&header, good.data(), sizeof(header));
  const std::size_t entry0 = static_cast<std::size_t>(header.index_offset);

  // Payload offset pointing past the index.
  std::string bad_offset = good;
  const std::uint64_t huge = good.size() + 1024;
  std::memcpy(&bad_offset[entry0], &huge, sizeof(huge));
  ExpectRejected(path, bad_offset);

  // Misaligned payload offset.
  std::string misaligned = good;
  const std::uint64_t odd = sizeof(sscb1::FileHeader) + 4;
  std::memcpy(&misaligned[entry0], &odd, sizeof(odd));
  ExpectRejected(path, misaligned);

  // Count larger than the universe.
  std::string bad_count = good;
  const std::uint32_t too_many = 101;  // n is 100
  std::memcpy(&bad_count[entry0 + 8], &too_many, sizeof(too_many));
  ExpectRejected(path, bad_count);

  // Unknown representation tag.
  std::string bad_rep = good;
  const std::uint16_t rep = 7;
  std::memcpy(&bad_rep[entry0 + 12], &rep, sizeof(rep));
  ExpectRejected(path, bad_rep);
}

TEST(BinaryStoreTest, RejectsCorruptPayloads) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("payload.sscb1");
  const std::string good = ValidFileBytes(path);

  // Set 0 is sparse {1,2,3}; its payload starts right after the header.
  const std::size_t payload0 = sizeof(sscb1::FileHeader);

  // Out-of-range element id.
  std::string bad_element = good;
  const std::uint32_t big = 1000;  // n is 100
  std::memcpy(&bad_element[payload0], &big, sizeof(big));
  ExpectRejected(path, bad_element);

  // Unsorted (duplicate) ids.
  std::string unsorted = good;
  const std::uint32_t dup = 2;
  std::memcpy(&unsorted[payload0], &dup, sizeof(dup));
  std::memcpy(&unsorted[payload0 + 4], &dup, sizeof(dup));
  ExpectRejected(path, unsorted);
}

TEST(BinaryStoreTest, RejectsNonInstanceFiles) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("not_binary.sscb1");
  ExpectRejected(path, "ssc1 8 0\n");  // a *text* instance
  ExpectRejected(path, "");
  ExpectRejected(path, std::string(4096, '\0'));

  MmapSetStream missing(dir.FilePath("missing.sscb1"));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// The ssc1 loader reads the magic from the same mapping it parses: an
// sscb1 file is refused by name instead of failing as malformed text.
TEST(BinaryStoreTest, FormatSniffDistinguishesTextAndBinary) {
  testing::ScopedTempDir dir;
  Rng rng(2);
  const SetSystem system = PlantedCoverInstance(64, 8, 4, rng);
  const std::string text_path = dir.FilePath("w.ssc");
  const std::string binary_path = dir.FilePath("w.sscb1");
  ASSERT_TRUE(SaveSetSystem(system, text_path).ok());
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, binary_path).ok());
  EXPECT_TRUE(LoadSetSystem(text_path).ok());
  const Status binary = LoadSetSystem(binary_path).status();
  EXPECT_EQ(binary.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(binary.message().find("sscb1"), std::string::npos)
      << binary.ToString();
  EXPECT_EQ(LoadSetSystem(dir.FilePath("missing")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(BinaryInstanceWriter::TranscodeText(binary_path,
                                                dir.FilePath("again.sscb1"))
                .code(),
            StatusCode::kInvalidArgument);
}

// OpenInstance maps sscb1 and loads ssc1; either stream serves set id i
// at position i, the precondition an overlay base relies on.
TEST(BinaryStoreTest, OpenInstanceServesEachFormatByPosition) {
  testing::ScopedTempDir dir;
  Rng rng(5);
  const SetSystem system = PlantedCoverInstance(128, 16, 4, rng);
  const std::string text_path = dir.FilePath("open.ssc");
  const std::string binary_path = dir.FilePath("open.sscb1");
  ASSERT_TRUE(SaveSetSystem(system, text_path).ok());
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, binary_path).ok());
  for (const std::string& path : {text_path, binary_path}) {
    SCOPED_TRACE(path);
    const StatusOr<std::unique_ptr<SetStream>> opened = OpenInstance(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const SetStream& stream = **opened;
    EXPECT_EQ(dynamic_cast<const MmapSetStream*>(&stream) != nullptr,
              path == binary_path);
    EXPECT_EQ(stream.universe_size(), system.universe_size());
    ASSERT_EQ(stream.num_sets(), system.num_sets());
    for (SetId id = 0; id < system.num_sets(); ++id) {
      const StreamItem item = stream.ItemAt(id);
      EXPECT_EQ(item.id, id);
      EXPECT_TRUE(item.set == system.set(id)) << "set " << id;
    }
  }
  EXPECT_EQ(OpenInstance(dir.FilePath("missing")).status().code(),
            StatusCode::kNotFound);
}

// Materializing the stream's views into an owning SetSystem gives back
// the written system.
TEST(BinaryStoreTest, MmapViewsMaterializeIntoTheWrittenSystem) {
  testing::ScopedTempDir dir;
  Rng rng(3);
  const SetSystem system = PlantedCoverInstance(256, 24, 4, rng);
  const std::string path = dir.FilePath("mat.sscb1");
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, path).ok());
  MmapSetStream stream(path);
  ASSERT_TRUE(stream.status().ok()) << stream.status().ToString();
  SetSystem materialized(stream.universe_size());
  for (SetId id = 0; id < stream.num_sets(); ++id) {
    materialized.AddSetFromView(stream.set(id));
  }
  EXPECT_EQ(materialized.universe_size(), system.universe_size());
  ASSERT_EQ(materialized.num_sets(), system.num_sets());
  for (SetId id = 0; id < system.num_sets(); ++id) {
    EXPECT_TRUE(materialized.set(id) == system.set(id)) << "set " << id;
  }
}

}  // namespace
}  // namespace streamsc
