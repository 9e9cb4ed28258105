#include "stream/engine_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "instance/generators.h"
#include "stream/set_stream.h"
#include "util/random.h"

namespace streamsc {
namespace {

SetSystem SmallSystem(std::uint64_t seed = 1) {
  Rng rng(seed);
  return UniformRandomInstance(300, 40, 24, rng);
}

// --- Engine-misuse death tests. ----------------------------------------

TEST(EngineContextDeathTest, MakeEngineRejectsThreadCountZero) {
  EXPECT_DEATH(MakeEngine(0), "thread count 0");
}

TEST(EngineContextDeathTest, RequireShardedRejectsNullEngine) {
  const SetSystem system = SmallSystem();
  VectorSetStream stream(system);
  EXPECT_DEATH(RequireSharded(stream, nullptr), "null engine");
}

// --- MakeEngine semantics. ---------------------------------------------

TEST(EngineContextTest, MakeEngineOneThreadIsTheSequentialPath) {
  EXPECT_EQ(MakeEngine(1), nullptr);
  const std::unique_ptr<ParallelPassEngine> engine = MakeEngine(3);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->num_threads(), 3u);
}

TEST(EngineContextTest, RequireShardedAcceptsShardedPair) {
  const SetSystem system = SmallSystem();
  VectorSetStream stream(system);
  ParallelPassEngine engine(2);
  RequireSharded(stream, &engine);  // must not die
}

// --- Sharding decision. ------------------------------------------------

TEST(EngineContextTest, ShardsWheneverAnEngineIsBound) {
  const SetSystem system = SmallSystem();
  VectorSetStream memory(system);
  ParallelPassEngine engine(2);

  EXPECT_FALSE(EngineContext(memory, nullptr).sharded());
  EXPECT_TRUE(EngineContext(memory, &engine).sharded());
}

// --- Determinism of the primitives across thread counts. ---------------

// The determinism contract for the pruning scan: the small system at
// threshold 10, plus six larger uniform instances at threshold 12.
TEST(EngineContextTest, ThresholdPassMatchesSequentialForAnyThreadCount) {
  std::vector<std::pair<SetSystem, double>> cases;
  cases.emplace_back(SmallSystem(3), 10.0);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    cases.emplace_back(UniformRandomInstance(400, 60, 30, rng), 12.0);
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const auto& [system, threshold] = cases[c];
    const std::size_t n = system.universe_size();

    VectorSetStream baseline_stream(system);
    EngineContext baseline_ctx(baseline_stream, nullptr);
    DynamicBitset baseline_uncovered = DynamicBitset::Full(n);
    std::vector<SetId> baseline_taken;
    baseline_ctx.ThresholdPass(threshold, baseline_uncovered, [&](SetId id) {
      baseline_taken.push_back(id);
    });

    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ParallelPassEngine engine(threads);
      VectorSetStream stream(system);
      EngineContext ctx(stream, &engine);
      DynamicBitset uncovered = DynamicBitset::Full(n);
      std::vector<SetId> taken;
      ctx.ThresholdPass(threshold, uncovered,
                        [&](SetId id) { taken.push_back(id); });
      EXPECT_EQ(taken, baseline_taken);
      EXPECT_EQ(uncovered, baseline_uncovered);
      EXPECT_EQ(ctx.counters().value(engine_counters::SetsTaken()),
                baseline_ctx.counters().value(engine_counters::SetsTaken()));
      EXPECT_EQ(
          ctx.counters().value(engine_counters::ElementsCovered()),
          baseline_ctx.counters().value(engine_counters::ElementsCovered()));
    }
  }
}

TEST(EngineContextTest, GainScanPassBoundsAreUpperBoundsVisitedInOrder) {
  const SetSystem system = SmallSystem(4);
  ParallelPassEngine engine(4);
  VectorSetStream stream(system);
  EngineContext ctx(stream, &engine);
  ASSERT_TRUE(ctx.sharded());

  DynamicBitset uncovered = DynamicBitset::Full(300);
  SetId last_id = 0;
  bool first = true;
  ctx.GainScanPass(uncovered, [&](const StreamItem& item, Count bound,
                                  bool bound_is_exact) {
    // Stream order: ids strictly increase for an adversarial-order
    // VectorSetStream.
    if (!first) {
      EXPECT_GT(item.id, last_id);
    }
    first = false;
    last_id = item.id;
    const Count exact = item.set.CountAnd(uncovered);
    EXPECT_GE(bound, exact);
    if (bound_is_exact) {
      EXPECT_EQ(bound, exact);
    }
    // Emulate a taker to make later bounds stale.
    item.set.AndNotInto(uncovered);
  });
  EXPECT_FALSE(first) << "visit never called";
}

TEST(EngineContextTest, TransformPassCommitsInStreamOrder) {
  const SetSystem system = SmallSystem(5);

  const auto run = [&](ParallelPassEngine* engine) {
    VectorSetStream stream(system);
    EngineContext ctx(stream, engine);
    std::vector<std::pair<SetId, Count>> committed;
    ctx.TransformPass<Count>(
        [](const StreamItem& item) { return item.set.CountSet(); },
        [&](const StreamItem& item, Count size) {
          committed.emplace_back(item.id, size);
        });
    return committed;
  };

  const auto baseline = run(nullptr);
  ASSERT_EQ(baseline.size(), system.num_sets());
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelPassEngine engine(threads);
    EXPECT_EQ(run(&engine), baseline);
  }
}

TEST(EngineContextTest, IndependentScanPassLanesMatchSequential) {
  const SetSystem system = SmallSystem(6);
  constexpr std::size_t kLanes = 7;

  const auto run = [&](ParallelPassEngine* engine) {
    VectorSetStream stream(system);
    EngineContext ctx(stream, engine);
    // Lane l accumulates an order-sensitive checksum of the items it saw.
    std::vector<std::uint64_t> checksum(kLanes, 0);
    ctx.IndependentScanPass(kLanes, [&](std::size_t lane,
                                        const StreamItem& item) {
      checksum[lane] = checksum[lane] * 1000003 + item.id + lane;
    });
    return checksum;
  };

  const auto baseline = run(nullptr);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelPassEngine engine(threads);
    EXPECT_EQ(run(&engine), baseline);
  }
}

TEST(EngineContextTest, SubtractPassClearsExactlyTheChosenSets) {
  const SetSystem system = SmallSystem(7);
  VectorSetStream stream(system);
  EngineContext ctx(stream, nullptr);

  const std::vector<SetId> chosen = {5, 2, 17};  // unsorted on purpose
  DynamicBitset uncovered = DynamicBitset::Full(300);
  ctx.SubtractPass(chosen, uncovered);

  DynamicBitset expected = DynamicBitset::Full(300);
  for (SetId id : chosen) system.set(id).AndNotInto(expected);
  EXPECT_EQ(uncovered, expected);
  EXPECT_EQ(ctx.counters().value(engine_counters::Passes()), 1u);
  EXPECT_EQ(ctx.counters().value(engine_counters::ElementsCovered()),
            300u - expected.CountSet());
  // An empty subtraction costs no pass.
  ctx.SubtractPass({}, uncovered);
  EXPECT_EQ(ctx.counters().value(engine_counters::Passes()), 1u);
}

TEST(EngineContextTest, UnionPassCollectsExactlyTheChosenSets) {
  const SetSystem system = SmallSystem(8);
  VectorSetStream stream(system);
  EngineContext ctx(stream, nullptr);

  const std::vector<SetId> chosen = {9, 1};
  DynamicBitset covered(300);
  ctx.UnionPass(chosen, covered);

  DynamicBitset expected(300);
  for (SetId id : chosen) system.set(id).OrInto(expected);
  EXPECT_EQ(covered, expected);
}

// The ledger: Stats().passes is the engine.passes counter, and it must
// move with the stream's own pass count across every pass primitive,
// sequential or sharded — including SubtractPass/UnionPass with nothing
// chosen, which make no pass. Stats() also reports the meter's peak.
TEST(EngineContextTest, StatsPassesFollowTheStreamThroughEveryPrimitive) {
  const SetSystem system = SmallSystem(12);
  const std::vector<SetId> chosen = {3, 11, 29};
  for (const std::size_t threads : {0u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::unique_ptr<ParallelPassEngine> engine =
        threads == 0 ? nullptr : std::make_unique<ParallelPassEngine>(threads);
    VectorSetStream stream(system);
    stream.BeginPass();  // a pass made before the context is not its own
    const std::uint64_t start = stream.passes();
    EngineContext ctx(stream, engine.get());
    const auto expect_in_step = [&](const char* primitive) {
      EXPECT_EQ(ctx.Stats().passes, stream.passes() - start) << primitive;
    };
    DynamicBitset uncovered = DynamicBitset::Full(300);
    DynamicBitset covered(300);
    ctx.SubtractPass({}, uncovered);
    ctx.UnionPass({}, covered);
    expect_in_step("empty SubtractPass/UnionPass");
    EXPECT_EQ(stream.passes(), start);
    EXPECT_TRUE(uncovered.All());
    EXPECT_TRUE(covered.None());
    ctx.ThresholdPass(8.0, uncovered, [](SetId) {});
    expect_in_step("ThresholdPass");
    ctx.GainScanPass(uncovered, [](const StreamItem&, Count, bool) {});
    expect_in_step("GainScanPass");
    ctx.TransformPass<SetId>([](const StreamItem& item) { return item.id; },
                             [](const StreamItem&, SetId) {});
    expect_in_step("TransformPass");
    ctx.IndependentScanPass(3, [](std::size_t, const StreamItem&) {});
    expect_in_step("IndependentScanPass");
    DynamicBitset residue = DynamicBitset::Full(300);
    ctx.SubtractPass(chosen, residue);
    expect_in_step("SubtractPass");
    ctx.UnionPass(chosen, covered);
    expect_in_step("UnionPass");
    ctx.CoverResiduePass(residue, [](SetId) {});
    expect_in_step("CoverResiduePass");
    EXPECT_EQ(ctx.Stats().passes, 7u);
    EXPECT_EQ(ctx.Stats().counters.value(engine_counters::ItemsScanned()),
              7 * system.num_sets());

    ctx.meter().Charge(64, "test.ledger");
    ctx.meter().Release(64, "test.ledger");
    ctx.meter().Charge(16, "test.ledger");
    EXPECT_EQ(ctx.Stats().peak_space_bytes, 64u);
  }
}

TEST(EngineContextTest, CoverResiduePassTakesUntilEmpty) {
  Rng rng(9);
  const SetSystem system = PlantedCoverInstance(128, 12, 4, rng);
  VectorSetStream stream(system);
  EngineContext ctx(stream, nullptr);

  DynamicBitset uncovered = DynamicBitset::Full(128);
  std::vector<SetId> taken;
  ctx.CoverResiduePass(uncovered,
                       [&](SetId id) { taken.push_back(id); });
  EXPECT_TRUE(uncovered.None());
  EXPECT_FALSE(taken.empty());
  EXPECT_EQ(ctx.counters().value(engine_counters::SetsTaken()), taken.size());
  EXPECT_EQ(ctx.counters().value(engine_counters::ElementsCovered()), 128u);
}

TEST(EngineContextTest, ParallelForRunsWithoutStreamBuffering) {
  const SetSystem system = SmallSystem(10);
  VectorSetStream stream(system);
  ParallelPassEngine engine(4);
  EngineContext ctx(stream, &engine);

  // Index-parallel work on solver-owned state shards without a pass.
  std::vector<int> hits(1000, 0);
  ctx.ParallelFor(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(EngineContextTest, CountersAreThreadCountInvariant) {
  const SetSystem system = SmallSystem(11);

  const auto run = [&](ParallelPassEngine* engine) {
    VectorSetStream stream(system);
    EngineContext ctx(stream, engine);
    DynamicBitset uncovered = DynamicBitset::Full(300);
    ctx.ThresholdPass(8.0, uncovered, [](SetId) {});
    ctx.ThresholdPass(1.0, uncovered, [](SetId) {});
    return ctx.counters();
  };

  const CounterId deterministic[] = {
      engine_counters::Passes(), engine_counters::ItemsScanned(),
      engine_counters::SetsTaken(), engine_counters::ElementsCovered()};
  const CounterSet baseline = run(nullptr);
  EXPECT_EQ(baseline.value(engine_counters::Passes()), 2u);
  EXPECT_EQ(baseline.value(engine_counters::ItemsScanned()),
            2 * system.num_sets());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelPassEngine engine(threads);
    const CounterSet counters = run(&engine);
    for (const CounterId id : deterministic) {
      EXPECT_EQ(counters.value(id), baseline.value(id)) << id.name();
    }
  }
}

}  // namespace
}  // namespace streamsc
