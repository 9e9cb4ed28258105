// Warm-start re-solve over overlay sources (SolveSession::OpenOverlay).
// Pinned here: the memo contract — an unchanged delta re-solves warm and
// reproduces the previous solution byte for byte; benign mutations keep
// the surviving prefix and re-cover only the residue; gutting the prefix
// (or passing warm=0, or changing solver options) falls back to a cold
// solve — plus the dynamic.* counter stamps and the non-overlay
// RefreshDelta typing.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "api/solve_session.h"
#include "dynamic/delta_log.h"
#include "dynamic/overlay_set_stream.h"
#include "instance/generators.h"
#include "obs/counters.h"
#include "storage/binary_instance_writer.h"
#include "stream/engine_context.h"
#include "testing/scoped_temp_dir.h"
#include "util/bitset.h"
#include "util/random.h"

namespace streamsc {
namespace {

using testing::ScopedTempDir;

constexpr const char* kSolver = "assadi";
const std::vector<std::string> kArgs = {"alpha=2"};

// A planted base written as sscb1 plus an initially-empty delta log.
struct Fixture {
  explicit Fixture(std::uint64_t seed) {
    Rng rng(seed);
    base = PlantedCoverInstance(512, 32, 2, rng);
    base_path = dir.FilePath("base.sscb1");
    EXPECT_TRUE(BinaryInstanceWriter::WriteSystem(base, base_path).ok());
    delta_path = dir.FilePath("delta.sscd1");
    DeltaLogWriter writer(delta_path, base.universe_size(),
                          base.num_sets());
    EXPECT_TRUE(writer.Finish().ok());
  }

  ScopedTempDir dir;
  SetSystem base = SetSystem(0);
  std::string base_path;
  std::string delta_path;
};

DynamicBitset RandomSet(std::size_t n, std::size_t k, Rng& rng) {
  DynamicBitset set(n);
  while (set.CountSet() < k) {
    set.Set(static_cast<std::size_t>(rng.UniformInt(n)));
  }
  return set;
}

// The cover achieved by `report`'s solution on the session's live
// overlay instance — warm or cold, a feasible report must cover it all.
bool CoversLiveInstance(const SolveSession& session,
                        const SolveReport& report) {
  const OverlaySetStream* overlay = session.overlay();
  EXPECT_NE(overlay, nullptr);
  DynamicBitset covered(overlay->universe_size());
  for (const SetId id : report.solution.chosen) {
    EXPECT_LT(id, overlay->num_sets());
    overlay->set(id).OrInto(covered);
  }
  return covered.CountSet() == overlay->universe_size();
}

std::uint64_t DynCounter(const SolveReport& report, const char* name) {
  return report.counters.value(CounterId::Counter(name));
}

TEST(WarmStartTest, UnchangedDeltaReSolvesWarmByteForByte) {
  Fixture fx(7);
  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(fx.base_path, fx.delta_path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->source(), SolveSession::Source::kOverlay);
  EXPECT_STREQ(session->source_name(), "overlay");

  StatusOr<SolveReport> cold = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->feasible);
  EXPECT_FALSE(cold->warm_start);
  EXPECT_EQ(DynCounter(*cold, "dynamic.cold_solves"), 1u);
  EXPECT_EQ(DynCounter(*cold, "dynamic.warm_solves"), 0u);

  StatusOr<SolveReport> warm = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm_start);
  EXPECT_TRUE(warm->feasible);
  // Byte-identical reproduction of the previous solution: the whole memo
  // survives, nothing is residual, and one subtract pass proves it.
  EXPECT_EQ(warm->solution.chosen, cold->solution.chosen);
  EXPECT_EQ(warm->surviving_prefix, cold->solution.size());
  EXPECT_EQ(warm->residue_elements, 0u);
  EXPECT_EQ(warm->passes, 1u);
  // Its space: the uncovered bitset over U plus the kept solution ids.
  const std::size_t n = session->overlay()->universe_size();
  EXPECT_EQ(warm->peak_space_bytes,
            (n + 63) / 64 * sizeof(DynamicBitset::Word) +
                warm->solution.size() * sizeof(SetId));
  EXPECT_EQ(warm->solver, cold->solver);
  EXPECT_EQ(warm->algorithm, cold->algorithm);
  EXPECT_EQ(DynCounter(*warm, "dynamic.warm_solves"), 1u);
  // Every chosen set, kept or re-covered, is a take.
  EXPECT_EQ(warm->counters.value(engine_counters::SetsTaken()),
            warm->solution.size());

  // A fresh session over the same files solves cold to the same bytes.
  StatusOr<SolveSession> fresh =
      SolveSession::OpenOverlay(fx.base_path, fx.delta_path);
  ASSERT_TRUE(fresh.ok());
  StatusOr<SolveReport> fresh_cold = fresh->Solve(kSolver, kArgs);
  ASSERT_TRUE(fresh_cold.ok());
  EXPECT_FALSE(fresh_cold->warm_start);
  EXPECT_EQ(fresh_cold->solution.chosen, warm->solution.chosen);
}

TEST(WarmStartTest, BenignMutationKeepsThePrefixAndCoversTheResidue) {
  Fixture fx(11);
  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(fx.base_path, fx.delta_path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  StatusOr<SolveReport> cold = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->feasible);
  ASSERT_GE(cold->solution.size(), 1u);

  // Mutate around the solution: add two sets and remove a slot the
  // previous solution did not choose — every memoized pair survives.
  std::vector<bool> chosen_slot(session->overlay()->num_slots(), false);
  for (const SetId id : cold->solution.chosen) {
    chosen_slot[session->overlay()->live_to_slot(id)] = true;
  }
  std::uint64_t victim = chosen_slot.size();
  for (std::uint64_t slot = 0; slot < chosen_slot.size(); ++slot) {
    if (!chosen_slot[slot]) {
      victim = slot;
      break;
    }
  }
  ASSERT_LT(victim, chosen_slot.size()) << "solution chose every slot";
  {
    Rng rng(13);
    DeltaLogWriter writer(fx.delta_path);
    ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
    ASSERT_TRUE(
        writer.AddSet(RandomSet(fx.base.universe_size(), 16, rng)).ok());
    ASSERT_TRUE(
        writer.AddSet(RandomSet(fx.base.universe_size(), 16, rng)).ok());
    ASSERT_TRUE(writer.RemoveSet(victim).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  ASSERT_TRUE(session->RefreshDelta().ok());

  StatusOr<SolveReport> warm = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm_start);
  EXPECT_TRUE(warm->feasible);
  EXPECT_EQ(warm->surviving_prefix, cold->solution.size());
  EXPECT_TRUE(CoversLiveInstance(*session, *warm));
  EXPECT_EQ(DynCounter(*warm, "dynamic.warm_solves"), 1u);
  EXPECT_EQ(warm->counters.value(engine_counters::SetsTaken()),
            warm->solution.size());
}

TEST(WarmStartTest, GuttedPrefixFallsBackToAColdSolve) {
  Fixture fx(19);
  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(fx.base_path, fx.delta_path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  StatusOr<SolveReport> cold = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->feasible);
  ASSERT_GE(cold->solution.size(), 1u);

  // Replace the *first* chosen set's slot: the surviving prefix is empty
  // (survival is a prefix property), so the warm threshold fails and the
  // session re-solves cold over the refreshed instance.
  const std::uint64_t first_slot =
      session->overlay()->live_to_slot(cold->solution.chosen[0]);
  {
    // The replacement is the full universe so the refreshed instance
    // stays trivially coverable — only the memo's validity is under test.
    DeltaLogWriter writer(fx.delta_path);
    ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
    ASSERT_TRUE(
        writer
            .ReplaceSet(first_slot,
                        DynamicBitset::Full(fx.base.universe_size()))
            .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  ASSERT_TRUE(session->RefreshDelta().ok());

  StatusOr<SolveReport> after = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->warm_start);
  EXPECT_TRUE(after->feasible);
  EXPECT_TRUE(CoversLiveInstance(*session, *after));
  EXPECT_EQ(DynCounter(*after, "dynamic.cold_solves"), 1u);
  EXPECT_EQ(DynCounter(*after, "dynamic.warm_solves"), 0u);
}

TEST(WarmStartTest, WarmZeroForcesAColdSolve) {
  Fixture fx(29);
  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(fx.base_path, fx.delta_path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  StatusOr<SolveReport> cold = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  std::vector<std::string> args = kArgs;
  args.push_back("warm=0");
  StatusOr<SolveReport> forced = session->Solve(kSolver, args);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_FALSE(forced->warm_start);
  // Cold and warm answer over the same unchanged instance: same bytes.
  EXPECT_EQ(forced->solution.chosen, cold->solution.chosen);
}

TEST(WarmStartTest, ChangedSolverOptionsInvalidateTheMemo) {
  Fixture fx(31);
  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(fx.base_path, fx.delta_path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  StatusOr<SolveReport> first = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  StatusOr<SolveReport> other = session->Solve(kSolver, {"alpha=3"});
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_FALSE(other->warm_start);

  // …and the memo now answers for the *new* configuration.
  StatusOr<SolveReport> warm = session->Solve(kSolver, {"alpha=3"});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm_start);
  EXPECT_EQ(warm->solution.chosen, other->solution.chosen);
}

TEST(WarmStartTest, WarmSolvesComposeAcrossRepeatedMutations) {
  Fixture fx(37);
  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(fx.base_path, fx.delta_path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Solve(kSolver, kArgs).ok());

  Rng rng(41);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    {
      DeltaLogWriter writer(fx.delta_path);
      ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
      ASSERT_TRUE(
          writer.AddSet(RandomSet(fx.base.universe_size(), 24, rng)).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    ASSERT_TRUE(session->RefreshDelta().ok());
    StatusOr<SolveReport> report = session->Solve(kSolver, kArgs);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // Pure adds never invalidate a memoized pair: every re-solve is warm.
    EXPECT_TRUE(report->warm_start);
    EXPECT_TRUE(report->feasible);
    EXPECT_TRUE(CoversLiveInstance(*session, *report));
  }
}

TEST(WarmStartTest, RecreatedShrunkDeltaDropsTheMemoAndSolvesCold) {
  Fixture fx(47);
  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(fx.base_path, fx.delta_path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Grow the instance with dominant added sets so the memo is likely to
  // reference appended slots — the ids a shrunk log no longer has.
  {
    Rng rng(53);
    DeltaLogWriter writer(fx.delta_path);
    ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          writer.AddSet(RandomSet(fx.base.universe_size(), 300, rng)).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
  ASSERT_TRUE(session->RefreshDelta().ok());
  StatusOr<SolveReport> cold = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->feasible);

  // Re-create the log from scratch (same base dims, zero records): every
  // appended slot is gone and slot versions restart, so memoized
  // (slot, version) pairs no longer identify content. The refresh itself
  // succeeds — and the next solve must run cold over the shrunk
  // instance, never index the overlay with a stale out-of-range slot.
  {
    DeltaLogWriter writer(fx.delta_path, fx.base.universe_size(),
                          fx.base.num_sets());
    ASSERT_TRUE(writer.Finish().ok());
  }
  ASSERT_TRUE(session->RefreshDelta().ok());
  EXPECT_EQ(session->overlay()->num_sets(), fx.base.num_sets());
  StatusOr<SolveReport> after = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->warm_start);
  EXPECT_TRUE(after->feasible);
  EXPECT_TRUE(CoversLiveInstance(*session, *after));
  EXPECT_EQ(DynCounter(*after, "dynamic.cold_solves"), 1u);
}

TEST(WarmStartTest, FailedRefreshDropsTheMemoButKeepsTheInstance) {
  Fixture fx(59);
  StatusOr<SolveSession> session =
      SolveSession::OpenOverlay(fx.base_path, fx.delta_path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  StatusOr<SolveReport> cold = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->feasible);

  // A torn write observed mid-poll: the refresh reports it, the overlay
  // retains the previous composition, and the suspect memo is dropped —
  // the next solve is cold but answers over the retained instance.
  {
    std::ofstream out(fx.delta_path, std::ios::binary | std::ios::app);
    out.write("torn", 4);
  }
  EXPECT_FALSE(session->RefreshDelta().ok());
  StatusOr<SolveReport> after = session->Solve(kSolver, kArgs);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->warm_start);
  EXPECT_TRUE(after->feasible);
  EXPECT_EQ(after->solution.chosen, cold->solution.chosen);
  EXPECT_TRUE(CoversLiveInstance(*session, *after));
}

TEST(WarmStartTest, RefreshDeltaOnNonOverlaySourcesIsTyped) {
  Fixture fx(43);
  StatusOr<SolveSession> session = SolveSession::Open(fx.base_path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->RefreshDelta().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->overlay(), nullptr);
}

}  // namespace
}  // namespace streamsc
