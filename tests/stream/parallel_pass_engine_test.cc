#include "stream/parallel_pass_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "core/sampling.h"
#include "instance/generators.h"
#include "obs/trace.h"
#include "stream/engine_context.h"
#include "stream/set_stream.h"
#include "util/random.h"

namespace streamsc {
namespace {

// One thread-count policy: a pool needs at least one thread, and "all
// cores" is the caller's call (MakeEngine rejects 0 the same way).
TEST(ParallelPassEngineDeathTest, ZeroThreadsIsRejected) {
  EXPECT_DEATH({ ParallelPassEngine engine(0); }, "at least one thread");
}

TEST(ParallelPassEngineTest, ParallelForCoversEveryIndexExactlyOnce) {
  ParallelPassEngine engine(4);
  EXPECT_EQ(engine.num_threads(), 4u);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  engine.ParallelFor(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelPassEngineTest, ParallelForHandlesEmptyAndReuse) {
  ParallelPassEngine engine(3);
  engine.ParallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
  // The pool is reusable across many jobs.
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    engine.ParallelFor(17, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ParallelPassEngineTest, SingleThreadEngineRunsInline) {
  ParallelPassEngine engine(1);
  std::vector<int> order;
  engine.ParallelFor(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// A job ends when every worker that joined it has left. Jobs of 1-3
// indices on an 8-wide pool end while most workers are still waking up,
// so late joiners constantly land on the next job. Every index must run
// once per job, and on traced jobs every worker that claimed an index
// must have emitted its one shard span before ParallelFor returned.
TEST(ParallelPassEngineTest, LateJoinersNeverRunAnIndexTwiceOrDropASpan) {
  constexpr std::size_t kJobs = 10000;
  constexpr std::size_t kTraceEvery = 10;
  ParallelPassEngine engine(8);
  TraceRecorder recorder;
  std::atomic<int> hits[3];
  std::thread::id claimer[3];
  // Per traced job id: the sorted claim counts of its claiming workers.
  std::map<std::uint64_t, std::vector<std::uint64_t>> expected_claims;
  std::size_t miscounted_indices = 0;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const std::size_t count = 1 + j % 3;
    for (std::atomic<int>& hit : hits) hit.store(0);
    const bool traced = j % kTraceEvery == 0;
    engine.ParallelFor(
        count,
        [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          claimer[i] = std::this_thread::get_id();
        },
        traced ? &recorder : nullptr);
    for (std::size_t i = 0; i < count; ++i) {
      if (hits[i].load() != 1) ++miscounted_indices;
    }
    if (!traced) continue;
    std::vector<std::thread::id> threads(claimer, claimer + count);
    std::sort(threads.begin(), threads.end());
    std::vector<std::uint64_t>& claims = expected_claims[engine.jobs_posted()];
    for (auto it = threads.begin(); it != threads.end();) {
      const auto run_end = std::upper_bound(it, threads.end(), *it);
      claims.push_back(static_cast<std::uint64_t>(run_end - it));
      it = run_end;
    }
    std::sort(claims.begin(), claims.end());
  }
  EXPECT_EQ(miscounted_indices, 0u) << "indices ran other than exactly once";
  EXPECT_EQ(engine.jobs_posted(), kJobs);

  // Every shard span names a traced job; per job, one span per claimer
  // carrying that claimer's claim count.
  ASSERT_EQ(recorder.events_dropped(), 0u);
  std::map<std::uint64_t, std::vector<std::uint64_t>> span_claims;
  recorder.ForEachEvent([&](const TraceEvent& event) {
    ASSERT_EQ(event.category, TraceCategory::kShard);
    ASSERT_EQ(event.num_args, 2);
    span_claims[event.arg_values[0]].push_back(event.arg_values[1]);
  });
  for (auto& [job, claims] : span_claims) {
    std::sort(claims.begin(), claims.end());
  }
  EXPECT_EQ(expected_claims.size(), kJobs / kTraceEvery);
  EXPECT_EQ(span_claims, expected_claims);
}

// The determinism contract for projection: a TransformPass produces
// projections bit-identical to the sequential path for every thread count.
// (The threshold pass's twin lives in engine_context_test.)
TEST(ParallelPassEngineTest,
     TransformPassProjectionMatchesSequentialForAnyThreadCount) {
  Rng rng(3);
  const SetSystem system = UniformRandomInstance(600, 40, 25, rng);
  VectorSetStream stream(system);
  const SubUniverse sub(rng.BernoulliSubset(600, 0.3));

  // Projects every item in a TransformPass (workers stage in their own
  // scratch) and re-homes each projection into a heap system, in stream
  // order.
  const auto project_all = [&](ParallelPassEngine* engine) {
    EngineContext ctx(stream, engine);
    SetSystem out(sub.size());
    std::vector<SetId> ids;
    ctx.TransformPass<ProjectedSet>(
        [&](const StreamItem& item) {
          return sub.ProjectAdaptive(item.set,
                                     ArenaAllocator<ElementId>::Scratch());
        },
        [&](const StreamItem& item, ProjectedSet projection) {
          StoreProjection(out, std::move(projection));
          ids.push_back(item.id);
        });
    return std::make_pair(std::move(out), std::move(ids));
  };

  const auto [sequential, sequential_ids] = project_all(nullptr);
  ASSERT_EQ(sequential.num_sets(), system.num_sets());
  for (SetId id = 0; id < system.num_sets(); ++id) {
    EXPECT_EQ(sequential_ids[id], id);
    EXPECT_TRUE(sequential.set(id) == SetView(sub.Project(system.set(id))));
  }

  for (const std::size_t threads : {2u, 8u}) {
    ParallelPassEngine engine(threads);
    const auto [parallel, parallel_ids] = project_all(&engine);
    ASSERT_EQ(parallel.num_sets(), sequential.num_sets());
    EXPECT_EQ(parallel_ids, sequential_ids) << "threads=" << threads;
    for (SetId id = 0; id < sequential.num_sets(); ++id) {
      EXPECT_TRUE(parallel.set(id) == sequential.set(id))
          << "threads=" << threads;
      EXPECT_EQ(parallel.IsSparse(id), sequential.IsSparse(id))
          << "threads=" << threads;
    }
  }
}

// End-to-end solver determinism (formerly spot-checked here for Assadi
// and threshold-greedy) now lives in the cross-algorithm conformance
// matrix: tests/integration/solver_matrix_test.cc runs *every* solver
// across {memory, file, mmap} sources x {none, 1, 2, 8} threads.

}  // namespace
}  // namespace streamsc
