#ifndef STREAMSC_STREAM_PARALLEL_PASS_ENGINE_H_
#define STREAMSC_STREAM_PARALLEL_PASS_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.h"

/// \file parallel_pass_engine.h
/// ParallelPassEngine: a fixed worker pool that shards one job's indices
/// across threads. The pass primitives built on it live in EngineContext
/// (stream/engine_context.h); workers read their items straight from the
/// stream there (SetStream::ItemAt), nothing is buffered.
///
/// One rule ends a job: it is over when every worker that joined it has
/// left. The caller opens the job, workers join and leave under the
/// engine's mutex, and once its own claims run dry the caller closes the
/// job and waits for the last worker to leave. Traced or not, every
/// shard span has been emitted when ParallelFor returns.
///
/// Allocation contract: ParallelFor never allocates. Callbacks travel as
/// FunctionRef (two words) and the engine reuses its one job for every
/// call. Worker threads get their scratch arena rewound when they join a
/// job, so worker-staged payloads must be committed (copied out) by the
/// orchestrator before it posts the next job — every pass primitive does.

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
  /// call concurrently for distinct indices.
  ///
  /// When \p trace is non-null every pool member that claimed at least
  /// one index emits one kShard span (with the job id and its claim
  /// count) into the recorder before ParallelFor returns, so a post-run
  /// merge can never race an emit.
  void ParallelFor(std::size_t count, FunctionRef<void(std::size_t)> fn,
                   TraceRecorder* trace = nullptr);

  /// Jobs posted since construction. Orchestrator-only read (the engine
  /// is not re-entrant, so the posting thread sees its own writes);
  /// pass machinery diffs this across a pass to count shard jobs.
  std::uint64_t jobs_posted() const { return job_.id; }

  /// Total indices handed to ParallelFor since construction
  /// (orchestrator-only read, like jobs_posted()).
  std::uint64_t items_dispatched() const { return items_dispatched_; }

 private:
  // The one job, reused by every ParallelFor. The caller writes count, fn
  // and trace before it opens the job under mu_; a worker reads them only
  // after joining under mu_, and the caller touches them again only once
  // every joined worker has left.
  struct Job {
    std::uint64_t id = 0;  // jobs opened so far; written under mu_
    std::size_t count = 0;
    const FunctionRef<void(std::size_t)>* fn = nullptr;
    TraceRecorder* trace = nullptr;
    bool open = false;        // workers may join; guarded by mu_
    std::size_t joined = 0;   // guarded by mu_
    std::size_t left = 0;     // guarded by mu_
    std::atomic<std::size_t> next{0};
  };

  void WorkerLoop();
  // Claims and runs indices of job_ until they run out.
  void RunJob();

  std::size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;  // guarded by mu_
  Job job_;
  // Indices dispatched; orchestrator-only (ParallelFor is not re-entrant).
  std::uint64_t items_dispatched_ = 0;
};

}  // namespace streamsc

#endif  // STREAMSC_STREAM_PARALLEL_PASS_ENGINE_H_
