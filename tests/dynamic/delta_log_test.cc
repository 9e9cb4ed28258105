// sscd1 delta-log reader/writer. Pinned here: the writer/reader
// round-trip (slot table, versions, payload views), append-mode reopen,
// write-time liveness typing, and — mirroring the sscb1 suite — the
// corruption matrix: every class of hostile or torn bytes is a typed
// InvalidArgument at open, never an over-read, hang, or abort.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dynamic/delta_format.h"
#include "dynamic/delta_log.h"
#include "instance/set_system.h"
#include "testing/scoped_temp_dir.h"
#include "util/bitset.h"

namespace streamsc {
namespace {

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// The fixed fixture the corruption matrix mutates: n=100, base m0=10,
// three records — a sparse add {1,2,3}, a remove of slot 5, and a dense
// replace of slot 0 (60 elements).
//
//   [header 48B][add 24+16=40B @48][remove 24B @88][replace 24+16=40B @112]
//
// (Dense payload over n=100 is 2 words = 16 bytes; sparse {1,2,3} is
// 12 bytes padded to 16.)
constexpr std::size_t kRec0 = sizeof(sscd1::FileHeader);
constexpr std::size_t kRec1 = kRec0 + 40;
constexpr std::size_t kRec2 = kRec1 + 24;

std::string FixtureBytes(const std::string& path) {
  DeltaLogWriter writer(path, 100, 10);
  DynamicBitset sparse(100);
  sparse.Set(1);
  sparse.Set(2);
  sparse.Set(3);
  EXPECT_TRUE(writer.AddSet(SetView(sparse)).ok());
  EXPECT_TRUE(writer.RemoveSet(5).ok());
  DynamicBitset dense(100);
  for (std::size_t e = 0; e < 60; ++e) dense.Set(e);
  EXPECT_TRUE(writer.ReplaceSet(0, SetView(dense)).ok());
  EXPECT_TRUE(writer.Finish().ok());
  const std::string bytes = ReadFile(path);
  EXPECT_EQ(bytes.size(), kRec2 + 40);
  return bytes;
}

void ExpectRejected(const std::string& path, const std::string& bytes,
                    const char* what) {
  WriteFile(path, bytes);
  DeltaLog log(path);
  EXPECT_FALSE(log.status().ok()) << what << ": should have been rejected";
  EXPECT_EQ(log.status().code(), StatusCode::kInvalidArgument) << what;
  EXPECT_EQ(log.num_slots(), 0u) << what << ": rejected log exposes slots";
}

// Overwrites sizeof(T) bytes at `offset` with `value`.
template <typename T>
std::string Patched(std::string bytes, std::size_t offset, T value) {
  std::memcpy(&bytes[offset], &value, sizeof(value));
  return bytes;
}

TEST(DeltaLogTest, RoundTripsSlotsVersionsAndViews) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("log.sscd1");
  FixtureBytes(path);

  DeltaLog log(path);
  ASSERT_TRUE(log.status().ok()) << log.status().ToString();
  EXPECT_EQ(log.universe_size(), 100u);
  EXPECT_EQ(log.base_num_sets(), 10u);
  EXPECT_EQ(log.record_count(), 3u);
  ASSERT_EQ(log.num_slots(), 11u);  // 10 base + 1 add

  // Liveness: slot 5 tombstoned, everything else live.
  for (std::uint64_t slot = 0; slot < 11; ++slot) {
    EXPECT_EQ(log.slot_live(slot), slot != 5) << "slot " << slot;
  }
  // Versions: 0 = base payload; else 1 + the index of the record that
  // *set the payload*. A remove leaves the version alone — the warm-start
  // survival test catches tombstones through liveness, not versions.
  EXPECT_EQ(log.slot_version(10), 1u);  // add     = record 0
  EXPECT_EQ(log.slot_version(5), 0u);   // removed, payload untouched
  EXPECT_EQ(log.slot_version(0), 3u);   // replace = record 2
  EXPECT_EQ(log.slot_version(1), 0u);
  // Payload residency + content.
  EXPECT_TRUE(log.slot_from_delta(10));
  EXPECT_TRUE(log.slot_from_delta(0));
  EXPECT_FALSE(log.slot_from_delta(1));
  EXPECT_EQ(log.slot_view(10).CountSet(), 3u);
  EXPECT_EQ(log.slot_view(0).CountSet(), 60u);
}

TEST(DeltaLogTest, AppendModeExtendsAnExistingLog) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("log.sscd1");
  {
    DeltaLogWriter writer(path, 64, 4);
    DynamicBitset set(64);
    set.Set(7);
    ASSERT_TRUE(writer.AddSet(SetView(set)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    DeltaLogWriter writer(path);  // append mode: replays liveness
    ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
    EXPECT_EQ(writer.record_count(), 1u);
    EXPECT_EQ(writer.num_slots(), 5u);
    ASSERT_TRUE(writer.RemoveSet(4).ok());  // the slot record 0 added
    ASSERT_TRUE(writer.Finish().ok());
  }
  DeltaLog log(path);
  ASSERT_TRUE(log.status().ok()) << log.status().ToString();
  EXPECT_EQ(log.record_count(), 2u);
  EXPECT_FALSE(log.slot_live(4));
}

TEST(DeltaLogTest, WriterTypesLivenessErrorsAtWriteTime) {
  testing::ScopedTempDir dir;
  DynamicBitset set(64);
  set.Set(1);
  {
    // Out-of-range and dead targets.
    DeltaLogWriter writer(dir.FilePath("a.sscd1"), 64, 4);
    EXPECT_EQ(writer.RemoveSet(4).code(), StatusCode::kInvalidArgument);
  }
  {
    DeltaLogWriter writer(dir.FilePath("b.sscd1"), 64, 4);
    ASSERT_TRUE(writer.RemoveSet(2).ok());
    EXPECT_EQ(writer.RemoveSet(2).code(), StatusCode::kInvalidArgument);
    // Errors are sticky: the writer refuses further work.
    EXPECT_FALSE(writer.ReplaceSet(0, SetView(set)).ok());
  }
  {
    // Universe mismatch on a payload.
    DeltaLogWriter writer(dir.FilePath("c.sscd1"), 100, 4);
    EXPECT_EQ(writer.AddSet(SetView(set)).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Append mode over a missing / corrupt log is a typed failure.
    DeltaLogWriter writer(dir.FilePath("missing.sscd1"));
    EXPECT_FALSE(writer.status().ok());
  }
}

TEST(DeltaLogTest, HugeBaseClaimDoesNotDriveAllocation) {
  // A 72-byte log whose header claims a base at the 2^31 format cap. The
  // claim is backed by no bytes of *this* file (unlike sscb1's offset
  // table), so the reader must stay O(records) in memory: opening it may
  // neither reject a valid log nor size a slot table off the claim —
  // before the sparse slot table this was a ~48GB allocation and an OOM
  // abort, violating the typed-error contract.
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("huge.sscd1");
  const std::uint64_t huge = sscd1::kMaxDimension;
  {
    DeltaLogWriter writer(path, 100, static_cast<std::size_t>(huge));
    ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.RemoveSet(huge - 1).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  DeltaLog log(path);
  ASSERT_TRUE(log.status().ok()) << log.status().ToString();
  EXPECT_EQ(log.base_num_sets(), huge);
  EXPECT_EQ(log.num_slots(), huge);
  EXPECT_FALSE(log.slot_live(huge - 1));
  EXPECT_TRUE(log.slot_live(0));
  EXPECT_TRUE(log.slot_live(huge / 2));
  EXPECT_EQ(log.slot_version(huge / 2), 0u);
  // Append mode replays the same liveness without a slots-sized table.
  DeltaLogWriter append(path);
  ASSERT_TRUE(append.status().ok()) << append.status().ToString();
  EXPECT_EQ(append.num_slots(), huge);
  EXPECT_EQ(append.RemoveSet(huge - 1).code(),
            StatusCode::kInvalidArgument);  // already dead
}

// ---- Corruption matrix ----------------------------------------------------

TEST(DeltaLogTest, RejectsBadMagicVersionAndDimensions) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("corrupt.sscd1");
  const std::string good = FixtureBytes(path);

  std::string bad_magic = good;
  bad_magic[0] = 'x';
  ExpectRejected(path, bad_magic, "bad magic");
  ExpectRejected(path, Patched<std::uint32_t>(good, 8, 9), "bad version");
  ExpectRejected(path,
                 Patched<std::uint64_t>(good, 16, sscd1::kMaxDimension + 1),
                 "huge universe");
  ExpectRejected(path,
                 Patched<std::uint64_t>(good, 24, sscd1::kMaxDimension + 1),
                 "huge base set count");
}

TEST(DeltaLogTest, RejectsTruncationAtEveryBoundary) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("trunc.sscd1");
  const std::string good = FixtureBytes(path);
  // Every strict prefix must be rejected: too small for the header, or a
  // header whose back-patched file_size no longer matches — the torn-
  // trailing-record case a crashed writer leaves behind.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, kRec0 - 1, kRec0, kRec0 + 1,
        kRec1 - 1, kRec1, kRec2, good.size() - 1}) {
    ExpectRejected(path, good.substr(0, keep),
                   ("kept " + std::to_string(keep) + " bytes").c_str());
  }
  // Trailing garbage is equally torn.
  ExpectRejected(path, good + std::string(8, '\0'), "trailing bytes");
}

TEST(DeltaLogTest, RejectsLyingCountsAndFraming) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("frame.sscd1");
  const std::string good = FixtureBytes(path);

  // Header record_count disagrees with the records present.
  ExpectRejected(path, Patched<std::uint64_t>(good, 32, 4), "record_count+1");
  ExpectRejected(path, Patched<std::uint64_t>(good, 32, 2), "record_count-1");
  // Record framing: misaligned, shrunk, and grown record_bytes.
  ExpectRejected(path, Patched<std::uint32_t>(good, kRec0, 41),
                 "misaligned record_bytes");
  ExpectRejected(path, Patched<std::uint32_t>(good, kRec0, 24),
                 "record_bytes too small for payload");
  ExpectRejected(path, Patched<std::uint32_t>(good, kRec0, 4096),
                 "record_bytes past file end");
}

TEST(DeltaLogTest, RejectsHostileRecordHeaders) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("record.sscd1");
  const std::string good = FixtureBytes(path);

  ExpectRejected(path, Patched<std::uint16_t>(good, kRec0 + 4, 0),
                 "type 0");
  ExpectRejected(path, Patched<std::uint16_t>(good, kRec0 + 4, 9),
                 "unknown type");
  ExpectRejected(path, Patched<std::uint16_t>(good, kRec0 + 6, 7),
                 "unknown rep");
  ExpectRejected(path, Patched<std::uint32_t>(good, kRec0 + 16, 101),
                 "count beyond universe");
  ExpectRejected(path, Patched<std::uint64_t>(good, kRec0 + 8, 1),
                 "add with nonzero target");
  // Remove records carry no payload: nonzero rep/count are hostile.
  ExpectRejected(path, Patched<std::uint16_t>(good, kRec1 + 6, 1),
                 "remove with a rep");
  ExpectRejected(path, Patched<std::uint32_t>(good, kRec1 + 16, 2),
                 "remove with a count");
}

TEST(DeltaLogTest, RejectsReplayLivenessViolations) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("replay.sscd1");
  const std::string good = FixtureBytes(path);

  // Remove of an out-of-range slot.
  ExpectRejected(path, Patched<std::uint64_t>(good, kRec1 + 8, 999),
                 "remove out-of-range slot");
  // Replace of the slot record 1 just tombstoned.
  ExpectRejected(path, Patched<std::uint64_t>(good, kRec2 + 8, 5),
                 "replace of a dead slot");
}

TEST(DeltaLogTest, RejectsCorruptPayloads) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("payload.sscd1");
  const std::string good = FixtureBytes(path);

  // Record 0's sparse payload {1,2,3} starts at kRec0 + 24.
  const std::size_t payload0 = kRec0 + sizeof(sscd1::RecordHeader);
  ExpectRejected(path, Patched<std::uint32_t>(good, payload0, 1000),
                 "sparse id beyond universe");
  std::string unsorted = Patched<std::uint32_t>(good, payload0, 2);
  ExpectRejected(path, Patched<std::uint32_t>(unsorted, payload0 + 4, 2),
                 "duplicate sparse ids");
  // Nonzero sparse padding (ids occupy 12 of the 16 payload bytes).
  ExpectRejected(path, Patched<std::uint32_t>(good, payload0 + 12, 1),
                 "nonzero sparse padding");
  // Record 2's dense payload: tail bits beyond n=100 must be zero.
  const std::size_t payload2 = kRec2 + sizeof(sscd1::RecordHeader);
  ExpectRejected(path,
                 Patched<std::uint64_t>(good, payload2 + 8,
                                        std::uint64_t{1} << 63),
                 "nonzero dense tail bits");
}

TEST(DeltaLogTest, RejectsNonLogFiles) {
  testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("not_a_log.sscd1");
  ExpectRejected(path, "", "empty file");
  ExpectRejected(path, "ssc1 8 0\n", "text instance");
  ExpectRejected(path, std::string(4096, '\0'), "zero page");

  DeltaLog missing(dir.FilePath("missing.sscd1"));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace streamsc
