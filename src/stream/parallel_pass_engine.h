#ifndef STREAMSC_STREAM_PARALLEL_PASS_ENGINE_H_
#define STREAMSC_STREAM_PARALLEL_PASS_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "stream/set_stream.h"
#include "util/bitset.h"
#include "util/common.h"
#include "util/function_ref.h"

/// \file parallel_pass_engine.h
/// ParallelPassEngine: a fixed worker pool that shards one stream pass's
/// positions across threads — workers read their items straight from the
/// stream (SetStream::ItemAt), nothing is buffered — plus the
/// deterministic gain scan built on it.
///
/// Determinism contract: every helper in this file produces results that
/// are **bit-identical for any thread count** (including the engine-less
/// sequential path). Parallelism is used only where item work is
/// independent (projection) or where a parallel phase can be proven
/// equivalent to the sequential loop (GainFilteredScan's monotone-gain
/// filter + in-order commit). Merges happen in stream order at pass end;
/// no result ever depends on thread scheduling.
///
/// Allocation contract: the engine's steady state is heap-allocation-free.
/// Pass callbacks travel as FunctionRef (two words, never allocates), jobs
/// are recycled from a small pool instead of make_shared per call, and the
/// scan primitives stage their snapshot buffers in the calling thread's
/// scratch arena. Worker threads get their scratch arena rewound at job
/// pickup, so worker-staged payloads must be committed (copied out) by the
/// orchestrator before it posts the next job — every primitive here does.

namespace streamsc {

class TraceRecorder;

/// A fixed pool of worker threads executing index-sharded jobs.
/// ParallelFor blocks until the job completes; jobs must not throw.
/// One engine can be reused across passes, algorithms, and runs; it is
/// not re-entrant (one ParallelFor at a time).
class ParallelPassEngine {
 public:
  /// Creates a pool of \p num_threads workers (the calling thread counts
  /// as one of them). CHECK-fails on 0, before any thread starts: callers
  /// resolve "all cores" themselves (see MakeEngine).
  explicit ParallelPassEngine(std::size_t num_threads);
  ~ParallelPassEngine();

  ParallelPassEngine(const ParallelPassEngine&) = delete;
  ParallelPassEngine& operator=(const ParallelPassEngine&) = delete;

  /// Worker count (including the calling thread).
  std::size_t num_threads() const { return num_threads_; }

  /// Invokes fn(i) exactly once for every i in [0, count), distributed
  /// over the pool; blocks until all calls return. \p fn must be safe to
  /// call concurrently for distinct indices. Steady-state allocation-free:
  /// jobs come from a pool that is recycled once its workers let go.
  ///
  /// When \p trace is non-null every pool member that claimed at least
  /// one index emits one kShard span (with the job id and its claim
  /// count) into the recorder, and ParallelFor additionally waits for
  /// all participating workers to retire their spans before returning —
  /// so a post-run merge can never race an emit. Null \p trace (the
  /// default) keeps the exact pre-observability fast path.
  void ParallelFor(std::size_t count, FunctionRef<void(std::size_t)> fn,
                   TraceRecorder* trace = nullptr);

  /// Jobs posted since construction. Orchestrator-only read (the engine
  /// is not re-entrant, so the posting thread sees its own writes);
  /// pass machinery diffs this across a pass to count shard jobs.
  std::uint64_t jobs_posted() const { return next_job_id_ - 1; }

  /// Total indices handed to ParallelFor since construction
  /// (orchestrator-only read, like jobs_posted()).
  std::uint64_t items_dispatched() const { return items_dispatched_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    std::size_t count = 0;
    const FunctionRef<void(std::size_t)>* fn = nullptr;
    TraceRecorder* trace = nullptr;
    std::size_t pickups = 0;  // workers that took this job; guarded by mu_
    std::size_t exits = 0;    // workers done with it; guarded by mu_
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
  };

  void WorkerLoop();
  // Claims and runs indices of \p job until exhausted.
  void RunJob(Job& job);
  // Returns a pool slot no worker still references, carving a new one
  // only while the pool is growing toward its steady-state size (bounded
  // by the worker count; see ParallelFor).
  std::shared_ptr<Job> AcquireJob();

  std::size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;           // guarded by mu_
  std::shared_ptr<Job> job_;        // guarded by mu_
  std::uint64_t next_job_id_ = 1;   // guarded by mu_
  // Indices dispatched; orchestrator-only (ParallelFor is not re-entrant).
  std::uint64_t items_dispatched_ = 0;
  // Recycled jobs; touched only by the orchestrating thread.
  std::vector<std::shared_ptr<Job>> job_pool_;
};

/// The monotone-gain scan under EngineContext::GainScanPass and
/// ThresholdPass — the one copy of both the sequential gain loop and the
/// chunked snapshot-filter + in-order-commit logic. Reads \p stream's
/// current pass by position (the caller has begun it) and calls
/// visit(item, gain_bound, bound_is_exact) in stream order for every item
/// whose bound is positive; sequentially (null/1-thread engine) the bound
/// is the exact current gain, sharded it is a chunk-snapshot upper bound
/// (`uncovered` only shrinks within a pass, and a zero bound proves zero
/// current gain). visit may clear bits of `uncovered`; for thread-count-
/// invariant results it must re-evaluate inexact bounds before acting on
/// their magnitude and be a no-op at zero current gain. Stops early once
/// `uncovered` is empty (every further visit would be such a no-op).
/// The snapshot-bound buffer lives in the calling thread's scratch arena
/// for the duration of the scan. A non-null \p trace flows into the
/// chunk jobs so workers emit their kShard spans.
void GainFilteredScan(const SetStream& stream, DynamicBitset& uncovered,
                      ParallelPassEngine* engine,
                      FunctionRef<void(const StreamItem&, Count, bool)> visit,
                      TraceRecorder* trace = nullptr);

}  // namespace streamsc

#endif  // STREAMSC_STREAM_PARALLEL_PASS_ENGINE_H_
