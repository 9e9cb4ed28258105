// OverlaySetStream: one SetStream over (base + sscd1 delta). Pinned
// here: the composition contract (base-order-then-append-order, dense
// renumbering, tombstone suppression) against a hand-applied model, all
// three base kinds, RefreshDelta's retain-on-failure semantics,
// Materialize equivalence — and the acceptance-gate conformance matrix:
// solving the overlay is byte-identical to solving its materialized
// sscb1 across {none, 1, 8} threads x {heap, arena} x {untraced, traced}
// (the latter two axes via RegistrySolverFn's triple run).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/solve_session.h"
#include "dynamic/delta_log.h"
#include "dynamic/overlay_set_stream.h"
#include "instance/generators.h"
#include "instance/serialization.h"
#include "instance/set_system.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "stream/parallel_pass_engine.h"
#include "testing/scoped_temp_dir.h"
#include "testing/solver_matrix.h"
#include "util/bitset.h"
#include "util/random.h"

namespace streamsc {
namespace {

using testing::ScopedTempDir;

// The fixture base: 10 sets over [64], written as both sscb1 and ssc1.
SetSystem FixtureBase() {
  Rng rng(17);
  return PlantedCoverInstance(64, 10, 4, rng);
}

DynamicBitset RandomSet(std::size_t n, std::size_t k, Rng& rng) {
  DynamicBitset set(n);
  while (set.CountSet() < k) {
    set.Set(static_cast<std::size_t>(rng.UniformInt(n)));
  }
  return set;
}

// Applies the fixture mutation script to a delta log at `path` and, in
// parallel, to a slot model: slots[i] == nullopt means tombstoned. The
// expected live instance is the engaged slots in slot order.
std::vector<std::optional<DynamicBitset>> WriteFixtureDelta(
    const SetSystem& base, const std::string& path) {
  std::vector<std::optional<DynamicBitset>> slots;
  for (SetId id = 0; id < base.num_sets(); ++id) {
    slots.emplace_back(base.set(id).ToDense());
  }
  Rng rng(99);
  DeltaLogWriter writer(path, base.universe_size(), base.num_sets());
  const DynamicBitset added0 = RandomSet(base.universe_size(), 6, rng);
  EXPECT_TRUE(writer.AddSet(SetView(added0)).ok());
  slots.emplace_back(added0);
  EXPECT_TRUE(writer.RemoveSet(3).ok());
  slots[3].reset();
  const DynamicBitset replacement = RandomSet(base.universe_size(), 9, rng);
  EXPECT_TRUE(writer.ReplaceSet(7, SetView(replacement)).ok());
  slots[7] = replacement;
  const DynamicBitset added1 = RandomSet(base.universe_size(), 2, rng);
  EXPECT_TRUE(writer.AddSet(SetView(added1)).ok());
  slots.emplace_back(added1);
  EXPECT_TRUE(writer.RemoveSet(10).ok());  // tombstone the first add
  slots[10].reset();
  EXPECT_TRUE(writer.Finish().ok());
  return slots;
}

// Every live slot, in slot order — what the overlay must enumerate.
std::vector<DynamicBitset> LiveSets(
    const std::vector<std::optional<DynamicBitset>>& slots) {
  std::vector<DynamicBitset> live;
  for (const auto& slot : slots) {
    if (slot.has_value()) live.push_back(*slot);
  }
  return live;
}

void ExpectStreamsModel(OverlaySetStream& overlay,
                        const std::vector<DynamicBitset>& expected) {
  ASSERT_TRUE(overlay.status().ok()) << overlay.status().ToString();
  ASSERT_EQ(overlay.num_sets(), expected.size());
  // Random access...
  for (SetId id = 0; id < expected.size(); ++id) {
    EXPECT_TRUE(overlay.set(id) == SetView(expected[id])) << "set " << id;
  }
  // ...and stream order, twice (BeginPass rewinds).
  for (int pass = 0; pass < 2; ++pass) {
    overlay.BeginPass();
    StreamItem item;
    SetId next = 0;
    while (overlay.Next(&item)) {
      ASSERT_LT(next, expected.size());
      EXPECT_EQ(item.id, next);
      EXPECT_TRUE(item.set == SetView(expected[next])) << "set " << next;
      ++next;
    }
    EXPECT_EQ(next, expected.size());
  }
  EXPECT_EQ(overlay.passes(), 2u);
}

TEST(OverlaySetStreamTest, ComposesOverEveryBaseKind) {
  ScopedTempDir dir;
  const SetSystem base = FixtureBase();
  const std::string binary_path = dir.FilePath("base.sscb1");
  const std::string text_path = dir.FilePath("base.ssc");
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(base, binary_path).ok());
  ASSERT_TRUE(SaveSetSystem(base, text_path).ok());
  const std::string delta_path = dir.FilePath("delta.sscd1");
  const auto slots = WriteFixtureDelta(base, delta_path);
  const std::vector<DynamicBitset> expected = LiveSets(slots);
  ASSERT_EQ(expected.size(), base.num_sets());  // +2 adds, -2 removes

  {
    SCOPED_TRACE("sscb1 base");
    OverlaySetStream overlay(binary_path, delta_path);
    ExpectStreamsModel(overlay, expected);
    EXPECT_EQ(overlay.base_num_sets(), base.num_sets());
    EXPECT_EQ(overlay.num_slots(), base.num_sets() + 2);
    EXPECT_EQ(overlay.delta_records(), 5u);
  }
  {
    SCOPED_TRACE("ssc1 text base");
    OverlaySetStream overlay(text_path, delta_path);
    ExpectStreamsModel(overlay, expected);
  }
  {
    SCOPED_TRACE("in-memory VectorSetStream base");
    OverlaySetStream overlay(std::make_unique<VectorSetStream>(base),
                             delta_path);
    ExpectStreamsModel(overlay, expected);
  }
}

TEST(OverlaySetStreamTest, SlotMappingIsConsistentBothWays) {
  ScopedTempDir dir;
  const SetSystem base = FixtureBase();
  const std::string delta_path = dir.FilePath("delta.sscd1");
  const auto slots = WriteFixtureDelta(base, delta_path);
  OverlaySetStream overlay(std::make_unique<VectorSetStream>(base),
                           delta_path);
  ASSERT_TRUE(overlay.status().ok()) << overlay.status().ToString();

  SetId live = 0;
  for (std::uint64_t slot = 0; slot < overlay.num_slots(); ++slot) {
    ASSERT_EQ(overlay.slot_live(slot), slots[slot].has_value());
    if (slots[slot].has_value()) {
      EXPECT_EQ(overlay.slot_to_live(slot), live);
      EXPECT_EQ(overlay.live_to_slot(live), slot);
      ++live;
    } else {
      EXPECT_EQ(overlay.slot_to_live(slot), kInvalidSetId);
    }
  }
  EXPECT_EQ(live, overlay.num_sets());
}

TEST(OverlaySetStreamTest, MaterializeWritesTheLiveInstance) {
  ScopedTempDir dir;
  const SetSystem base = FixtureBase();
  const std::string delta_path = dir.FilePath("delta.sscd1");
  const auto slots = WriteFixtureDelta(base, delta_path);
  const std::vector<DynamicBitset> expected = LiveSets(slots);
  OverlaySetStream overlay(std::make_unique<VectorSetStream>(base),
                           delta_path);
  ASSERT_TRUE(overlay.status().ok()) << overlay.status().ToString();

  const std::string out_path = dir.FilePath("compacted.sscb1");
  ASSERT_TRUE(overlay.Materialize(out_path).ok());
  MmapSetStream compacted(out_path);
  ASSERT_TRUE(compacted.status().ok()) << compacted.status().ToString();
  ASSERT_EQ(compacted.num_sets(), expected.size());
  EXPECT_EQ(compacted.universe_size(), base.universe_size());
  for (SetId id = 0; id < expected.size(); ++id) {
    EXPECT_TRUE(compacted.set(id) == SetView(expected[id])) << "set " << id;
  }
}

TEST(OverlaySetStreamTest, RefreshDeltaPicksUpAppendsAndRetainsOnFailure) {
  ScopedTempDir dir;
  const SetSystem base = FixtureBase();
  const std::string delta_path = dir.FilePath("delta.sscd1");
  {
    DeltaLogWriter writer(delta_path, base.universe_size(), base.num_sets());
    ASSERT_TRUE(writer.Finish().ok());
  }
  OverlaySetStream overlay(std::make_unique<VectorSetStream>(base),
                           delta_path);
  ASSERT_TRUE(overlay.status().ok()) << overlay.status().ToString();
  EXPECT_EQ(overlay.num_sets(), base.num_sets());

  // Append a remove, refresh: one fewer live set.
  {
    DeltaLogWriter writer(delta_path);
    ASSERT_TRUE(writer.RemoveSet(0).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  ASSERT_TRUE(overlay.RefreshDelta().ok());
  EXPECT_EQ(overlay.num_sets(), base.num_sets() - 1);
  EXPECT_FALSE(overlay.slot_live(0));
  // The renumbered id 0 is now base slot 1.
  EXPECT_TRUE(overlay.set(0) == base.set(1));

  // A torn log observed mid-poll: refresh fails, previous state retained.
  {
    std::ofstream out(delta_path, std::ios::binary | std::ios::app);
    out.write("torn", 4);
  }
  EXPECT_FALSE(overlay.RefreshDelta().ok());
  EXPECT_TRUE(overlay.status().ok());
  EXPECT_EQ(overlay.num_sets(), base.num_sets() - 1);
  EXPECT_TRUE(overlay.set(0) == base.set(1));
}

TEST(OverlaySetStreamTest, RefreshDeltaRetainsOnMismatchAndRecovers) {
  ScopedTempDir dir;
  const SetSystem base = FixtureBase();
  const std::string delta_path = dir.FilePath("delta.sscd1");
  {
    DeltaLogWriter writer(delta_path, base.universe_size(), base.num_sets());
    ASSERT_TRUE(writer.RemoveSet(0).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  OverlaySetStream overlay(std::make_unique<VectorSetStream>(base),
                           delta_path);
  ASSERT_TRUE(overlay.status().ok()) << overlay.status().ToString();
  EXPECT_EQ(overlay.num_sets(), base.num_sets() - 1);

  // The log is re-created at the same path for the *wrong* base — a
  // well-formed sscd1 file that no longer matches. The refresh reports
  // the mismatch but retains the previous composition; the stream is not
  // poisoned.
  {
    DeltaLogWriter writer(delta_path, base.universe_size(),
                          base.num_sets() + 5);
    ASSERT_TRUE(writer.Finish().ok());
  }
  EXPECT_EQ(overlay.RefreshDelta().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(overlay.status().ok());
  EXPECT_EQ(overlay.num_sets(), base.num_sets() - 1);
  EXPECT_FALSE(overlay.slot_live(0));
  EXPECT_TRUE(overlay.set(0) == base.set(1));

  // And the failure is not sticky: once the file matches again, the next
  // poll refreshes — no base change or reopen needed.
  {
    DeltaLogWriter writer(delta_path, base.universe_size(), base.num_sets());
    ASSERT_TRUE(writer.Finish().ok());
  }
  ASSERT_TRUE(overlay.RefreshDelta().ok());
  EXPECT_EQ(overlay.num_sets(), base.num_sets());
  EXPECT_TRUE(overlay.set(0) == base.set(0));
}

TEST(OverlaySetStreamTest, RejectsBaseDeltaMismatch) {
  ScopedTempDir dir;
  const SetSystem base = FixtureBase();
  // Wrong universe size.
  {
    const std::string delta_path = dir.FilePath("wrong_n.sscd1");
    DeltaLogWriter writer(delta_path, base.universe_size() + 1,
                          base.num_sets());
    ASSERT_TRUE(writer.Finish().ok());
    OverlaySetStream overlay(std::make_unique<VectorSetStream>(base),
                             delta_path);
    EXPECT_EQ(overlay.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(overlay.num_sets(), 0u);
  }
  // Wrong base set count.
  {
    const std::string delta_path = dir.FilePath("wrong_m.sscd1");
    DeltaLogWriter writer(delta_path, base.universe_size(),
                          base.num_sets() + 1);
    ASSERT_TRUE(writer.Finish().ok());
    OverlaySetStream overlay(std::make_unique<VectorSetStream>(base),
                             delta_path);
    EXPECT_EQ(overlay.status().code(), StatusCode::kInvalidArgument);
  }
  // Missing pieces.
  {
    OverlaySetStream overlay(dir.FilePath("missing.sscb1"),
                             dir.FilePath("missing.sscd1"));
    EXPECT_FALSE(overlay.status().ok());
  }
}

// Every opener of a base instance reports the same status code for the
// same bad base: a plain SolveSession::Open, the overlay stream over a
// good delta, and the overlay session. Only the base is bad here, so the
// code is the base's own (the delta is never compared against it).
TEST(OverlaySetStreamTest, BadBaseReportsTheSameCodeThroughEveryOpener) {
  ScopedTempDir dir;
  const SetSystem base = FixtureBase();
  const std::string delta_path = dir.FilePath("good.sscd1");
  {
    DeltaLogWriter writer(delta_path, base.universe_size(), base.num_sets());
    ASSERT_TRUE(writer.Finish().ok());
  }

  const std::string fifo_path = dir.FilePath("base.fifo");
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0) << std::strerror(errno);
  const std::string garbage_path = dir.FilePath("garbage.ssc");
  {
    std::ofstream out(garbage_path, std::ios::trunc);
    out << "not an instance at all\n";
  }
  const std::string duplicate_path = dir.FilePath("duplicate.ssc");
  {
    std::ofstream out(duplicate_path, std::ios::trunc);
    out << "ssc1 64 2\n3 0 1 1\n1 2\n";
  }
  const std::string truncated_path = dir.FilePath("truncated.sscb1");
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(base, truncated_path).ok());
  std::filesystem::resize_file(
      truncated_path, std::filesystem::file_size(truncated_path) / 2);

  struct BadBase {
    const char* name;
    std::string path;
    StatusCode code;
  };
  const std::vector<BadBase> rows = {
      {"missing", dir.FilePath("missing.sscb1"), StatusCode::kNotFound},
      {"fifo", fifo_path, StatusCode::kInvalidArgument},
      {"garbage ssc1", garbage_path, StatusCode::kInvalidArgument},
      {"duplicate element", duplicate_path, StatusCode::kInvalidArgument},
      {"truncated sscb1", truncated_path, StatusCode::kInvalidArgument},
  };
  for (const BadBase& row : rows) {
    SCOPED_TRACE(row.name);
    const StatusOr<SolveSession> session = SolveSession::Open(row.path);
    ASSERT_FALSE(session.ok());
    EXPECT_EQ(session.status().code(), row.code)
        << session.status().ToString();
    const OverlaySetStream overlay(row.path, delta_path);
    EXPECT_EQ(overlay.status().code(), row.code)
        << overlay.status().ToString();
    EXPECT_EQ(overlay.num_sets(), 0u);
    const StatusOr<SolveSession> overlay_session =
        SolveSession::OpenOverlay(row.path, delta_path);
    ASSERT_FALSE(overlay_session.ok());
    EXPECT_EQ(overlay_session.status().code(), row.code)
        << overlay_session.status().ToString();
  }
}

// The acceptance gate: solving the overlay and solving its materialized
// sscb1 produce byte-identical solutions across {none, 1, 8} threads.
// RegistrySolverFn additionally runs every cell heap-backed,
// arena-backed, and traced, asserting the three agree — covering the
// arena on/off and trace on/off axes of the matrix.
TEST(OverlaySetStreamTest, OverlaySolvesByteIdenticalToMaterialized) {
  ScopedTempDir dir;
  Rng rng(5);
  const SetSystem base = PlantedCoverInstance(512, 32, 2, rng);
  const std::string binary_path = dir.FilePath("base.sscb1");
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(base, binary_path).ok());
  const std::string delta_path = dir.FilePath("delta.sscd1");
  {
    Rng delta_rng(6);
    DeltaLogWriter writer(delta_path, base.universe_size(), base.num_sets());
    for (int i = 0; i < 4; ++i) {
      const DynamicBitset set = RandomSet(base.universe_size(), 40, delta_rng);
      ASSERT_TRUE(writer.AddSet(SetView(set)).ok());
    }
    ASSERT_TRUE(writer.RemoveSet(3).ok());
    ASSERT_TRUE(
        writer.ReplaceSet(8, RandomSet(base.universe_size(), 64, delta_rng))
            .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  OverlaySetStream overlay(binary_path, delta_path);
  ASSERT_TRUE(overlay.status().ok()) << overlay.status().ToString();
  const std::string compacted_path = dir.FilePath("compacted.sscb1");
  ASSERT_TRUE(overlay.Materialize(compacted_path).ok());

  const testing::SolverFn solve =
      testing::RegistrySolverFn("assadi", {"alpha=2"});
  MmapSetStream baseline_stream(compacted_path);
  ASSERT_TRUE(baseline_stream.status().ok());
  const testing::SolverOutcome baseline = solve(baseline_stream, nullptr);
  EXPECT_TRUE(baseline.feasible);
  EXPECT_FALSE(baseline.chosen.empty());

  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" +
                 (threads == 0 ? std::string("none")
                               : std::to_string(threads)));
    std::optional<ParallelPassEngine> engine;
    if (threads > 0) engine.emplace(threads);
    OverlaySetStream stream(binary_path, delta_path);
    ASSERT_TRUE(stream.status().ok()) << stream.status().ToString();
    const testing::SolverOutcome outcome =
        solve(stream, engine ? &*engine : nullptr);
    EXPECT_EQ(outcome.chosen, baseline.chosen);
    EXPECT_EQ(outcome.feasible, baseline.feasible);
    EXPECT_EQ(outcome.passes, baseline.passes);
    EXPECT_EQ(outcome.items_scanned, baseline.items_scanned);
    EXPECT_EQ(outcome.sets_taken, baseline.sets_taken);
    EXPECT_EQ(outcome.elements_covered, baseline.elements_covered);
    EXPECT_EQ(outcome.extra, baseline.extra);
  }
}

}  // namespace
}  // namespace streamsc
