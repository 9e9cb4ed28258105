// The one payload check both binary readers apply (CheckSetPayload in
// storage/set_payload.h): every kind of malformed set payload is a typed
// InvalidArgument from the sscb1 reader (MmapSetStream) and from the
// sscd1 reader (DeltaLog) alike, with the reader's own location prefix
// and the shared message text.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dynamic/delta_format.h"
#include "dynamic/delta_log.h"
#include "instance/set_system.h"
#include "storage/binary_format.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "testing/scoped_temp_dir.h"

namespace streamsc {
namespace {

enum class Fault {
  kDenseTail,
  kDensePopcount,
  kOutOfRange,
  kNotIncreasing,
  kNonzeroPadding,
};

enum class Format { kSscb1, kSscd1 };

struct Row {
  Fault fault;
  Format format;
};

std::string FaultName(Fault fault) {
  switch (fault) {
    case Fault::kDenseTail:
      return "DenseTail";
    case Fault::kDensePopcount:
      return "DensePopcount";
    case Fault::kOutOfRange:
      return "OutOfRange";
    case Fault::kNotIncreasing:
      return "NotIncreasing";
    case Fault::kNonzeroPadding:
      return "NonzeroPadding";
  }
  return "Unknown";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Patch(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(&bytes[offset], &value, sizeof(value));
}

// Both fixtures hold the same two sets over n = 100: set/record 0 is the
// sparse {1, 2, 3} (12 id bytes padded to 16), set/record 1 the dense
// {0, ..., 59} (two words; bits 100..127 of the second are the tail).
constexpr std::size_t kUniverse = 100;

SetSystem FixtureSystem() {
  SetSystem system(kUniverse);
  system.AddSetFromIndices({1, 2, 3});
  std::vector<ElementId> dense;
  for (ElementId e = 0; e < 60; ++e) dense.push_back(e);
  system.AddSetFromIndices(dense);
  return system;
}

// A valid file of \p format plus the byte offsets of its sparse and
// dense payloads.
struct Fixture {
  std::string bytes;
  std::size_t sparse_payload = 0;
  std::size_t dense_payload = 0;
};

Fixture WriteFixture(Format format, const std::string& path) {
  const SetSystem system = FixtureSystem();
  Fixture fixture;
  if (format == Format::kSscb1) {
    EXPECT_TRUE(BinaryInstanceWriter::WriteSystem(system, path).ok());
    fixture.bytes = ReadFile(path);
    sscb1::FileHeader header;
    std::memcpy(&header, fixture.bytes.data(), sizeof(header));
    sscb1::SetIndexEntry entries[2];
    std::memcpy(entries, fixture.bytes.data() + header.index_offset,
                sizeof(entries));
    EXPECT_EQ(entries[0].rep, sscb1::kSparse);
    EXPECT_EQ(entries[1].rep, sscb1::kDense);
    fixture.sparse_payload = static_cast<std::size_t>(entries[0].offset);
    fixture.dense_payload = static_cast<std::size_t>(entries[1].offset);
  } else {
    DeltaLogWriter writer(path, kUniverse, 0);
    EXPECT_TRUE(writer.AddSet(system.set(0)).ok());
    EXPECT_TRUE(writer.AddSet(system.set(1)).ok());
    EXPECT_TRUE(writer.Finish().ok());
    fixture.bytes = ReadFile(path);
    // [header][record 0: 24 + 16 bytes][record 1: 24 + 16 bytes]
    const std::size_t record0 = sizeof(sscd1::FileHeader);
    const std::size_t record1 = record0 + sizeof(sscd1::RecordHeader) + 16;
    EXPECT_EQ(fixture.bytes.size(),
              record1 + sizeof(sscd1::RecordHeader) + 16);
    fixture.sparse_payload = record0 + sizeof(sscd1::RecordHeader);
    fixture.dense_payload = record1 + sizeof(sscd1::RecordHeader);
  }
  return fixture;
}

// The message the readers share for \p fault, behind the reader's prefix
// for the set or record it sits in.
std::string ExpectedMessage(Fault fault, Format format) {
  const bool dense = fault == Fault::kDenseTail ||
                     fault == Fault::kDensePopcount;
  const std::string where = format == Format::kSscb1
                                ? (dense ? "sscb1: set 1: " : "sscb1: set 0: ")
                                : (dense ? "sscd1: record 1: "
                                         : "sscd1: record 0: ");
  switch (fault) {
    case Fault::kDenseTail:
      return where + "dense tail bits beyond the universe are set";
    case Fault::kDensePopcount:
      return where + "payload popcount mismatches the " +
             (format == Format::kSscb1 ? "index" : "record") + " count";
    case Fault::kOutOfRange:
      return where + "element out of range";
    case Fault::kNotIncreasing:
      return where + "elements not strictly increasing";
    case Fault::kNonzeroPadding:
      return where + "nonzero sparse payload padding";
  }
  return where;
}

class SetPayloadCheckTest : public ::testing::TestWithParam<Row> {};

TEST_P(SetPayloadCheckTest, BothReadersRejectTheMalformedPayload) {
  const auto [fault, format] = GetParam();
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("fixture.bin");
  Fixture fixture = WriteFixture(format, path);

  // The untouched fixture loads: the rejection below is the fault's.
  if (format == Format::kSscb1) {
    ASSERT_TRUE(MmapSetStream(path).status().ok());
  } else {
    ASSERT_TRUE(DeltaLog(path).status().ok());
  }

  std::string& bytes = fixture.bytes;
  switch (fault) {
    case Fault::kDenseTail:  // element 127 of a 100-element universe
      Patch<std::uint64_t>(bytes, fixture.dense_payload + 8,
                           std::uint64_t{1} << 63);
      break;
    case Fault::kDensePopcount:  // element 61 joins; the count says 60
      Patch<std::uint64_t>(bytes, fixture.dense_payload,
                           ((std::uint64_t{1} << 60) - 1) |
                               (std::uint64_t{1} << 61));
      break;
    case Fault::kOutOfRange:
      Patch<std::uint32_t>(bytes, fixture.sparse_payload, 1000);
      break;
    case Fault::kNotIncreasing:  // {2, 2, 3}
      Patch<std::uint32_t>(bytes, fixture.sparse_payload, 2);
      break;
    case Fault::kNonzeroPadding:  // the ids fill 12 of the 16 bytes
      Patch<std::uint32_t>(bytes, fixture.sparse_payload + 12, 1);
      break;
  }
  WriteFile(path, bytes);

  const Status status = format == Format::kSscb1
                            ? MmapSetStream(path).status()
                            : DeltaLog(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_EQ(status.message(), ExpectedMessage(fault, format));
}

std::vector<Row> AllRows() {
  std::vector<Row> rows;
  for (const Fault fault :
       {Fault::kDenseTail, Fault::kDensePopcount, Fault::kOutOfRange,
        Fault::kNotIncreasing, Fault::kNonzeroPadding}) {
    for (const Format format : {Format::kSscb1, Format::kSscd1}) {
      rows.push_back(Row{fault, format});
    }
  }
  return rows;
}

INSTANTIATE_TEST_SUITE_P(
    FaultByFormat, SetPayloadCheckTest, ::testing::ValuesIn(AllRows()),
    [](const ::testing::TestParamInfo<Row>& info) {
      return FaultName(info.param.fault) +
             (info.param.format == Format::kSscb1 ? "Sscb1" : "Sscd1");
    });

}  // namespace
}  // namespace streamsc
