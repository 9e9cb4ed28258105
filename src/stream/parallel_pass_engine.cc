#include "stream/parallel_pass_engine.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/arena.h"
#include "util/check.h"

namespace streamsc {

ParallelPassEngine::ParallelPassEngine(std::size_t num_threads)
    : num_threads_(num_threads) {
  STREAMSC_CHECK(num_threads >= 1,
                 "ParallelPassEngine: a pool needs at least one thread");
  workers_.reserve(num_threads - 1);
  // Steady state keeps one live job plus at most one stale reference per
  // worker, so the pool never outgrows this reservation.
  job_pool_.reserve(num_threads + 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelPassEngine::~ParallelPassEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ParallelPassEngine::RunJob(Job& job) {
  // One branch when untraced: the span start is read only when a
  // recorder rode in on the job.
  const std::int64_t start_ns =
      job.trace != nullptr ? TraceRecorder::NowNs() : 0;
  std::size_t claimed = 0;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) break;
    (*job.fn)(i);
    ++claimed;
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.count) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
  if (job.trace != nullptr && claimed > 0) {
    const TraceArg args[] = {{"job", job.id}, {"items", claimed}};
    job.trace->Emit(TraceCategory::kShard, "shard", start_ns,
                    TraceRecorder::NowNs() - start_ns, args, 2);
  }
}

void ParallelPassEngine::WorkerLoop() {
  std::uint64_t last_job_id = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && job_->id != last_job_id);
      });
      if (shutdown_) return;
      job = job_;
      last_job_id = job->id;
      // Counted under mu_ so the orchestrator, which unpublishes the job
      // under the same lock, sees a complete roster of participants.
      ++job->pickups;
    }
    // Worker scratch is job-scoped: anything a previous job staged there
    // has been committed by the orchestrator before it posted this one
    // (the pass primitives copy worker-staged payloads out in their
    // in-order commit phase). Rewinding here, chunks retained, is what
    // keeps worker scratch from growing across passes.
    ThreadScratchArena().Reset();
    // Each job owns its claim counters (shared_ptr keeps stale jobs
    // alive), so a late-waking worker can never claim into a newer job.
    RunJob(*job);
    if (job->trace != nullptr) {
      // Traced jobs check out: the orchestrator waits for every
      // participant's shard span before it lets the caller touch the
      // recorder (see ParallelFor).
      std::lock_guard<std::mutex> lock(mu_);
      ++job->exits;
      done_cv_.notify_all();
    }
  }
}

std::shared_ptr<ParallelPassEngine::Job> ParallelPassEngine::AcquireJob() {
  // A slot with use_count() == 1 is referenced by the pool alone: the
  // engine's job_ was cleared when its ParallelFor finished and every
  // worker has dropped its copy. Workers that finished late may still pin
  // their last job, in which case the pool grows by one — bounded by the
  // worker count, after which ParallelFor is allocation-free.
  for (std::shared_ptr<Job>& slot : job_pool_) {
    if (slot.use_count() == 1) return slot;
  }
  job_pool_.push_back(std::make_shared<Job>());
  return job_pool_.back();
}

void ParallelPassEngine::ParallelFor(std::size_t count,
                                     FunctionRef<void(std::size_t)> fn,
                                     TraceRecorder* trace) {
  if (count == 0) return;
  items_dispatched_ += count;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::shared_ptr<Job> job = AcquireJob();
  job->count = count;
  job->fn = &fn;
  job->trace = trace;
  job->next.store(0, std::memory_order_relaxed);
  job->completed.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->pickups = 0;
    job->exits = 0;
    job->id = next_job_id_++;
    job_ = job;
  }
  work_cv_.notify_all();
  RunJob(*job);  // the calling thread participates
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return job->completed.load(std::memory_order_acquire) == count;
  });
  // Drop the engine's reference while still under the lock: workers can
  // no longer pick this job up, so its pool slot recycles as soon as the
  // last straggler lets go.
  job_.reset();
  if (trace != nullptr) {
    // With the job unpublished there can be no new pickups; wait for
    // every worker that did pick it up to retire its shard span, so a
    // post-run merge of the recorder can never race an emit. Only traced
    // jobs pay for this rendezvous.
    done_cv_.wait(lock, [&] { return job->exits == job->pickups; });
  }
}

void GainFilteredScan(
    const SetStream& stream, DynamicBitset& uncovered,
    ParallelPassEngine* engine,
    FunctionRef<void(const StreamItem&, Count, bool)> visit,
    TraceRecorder* trace) {
  const std::size_t m = stream.num_sets();
  if (engine == nullptr || engine->num_threads() <= 1 || m < 2) {
    for (std::size_t pos = 0; pos < m; ++pos) {
      if (uncovered.None()) return;
      const StreamItem item = stream.ItemAt(pos);
      const Count gain = item.set.CountAnd(uncovered);
      if (gain > 0) visit(item, gain, /*bound_is_exact=*/true);
    }
    return;
  }

  // Chunked parallel filter + in-order commit. The chunk size only
  // affects how stale the snapshot bounds are, never the outcome: bounds
  // only shrink as earlier commits subtract from `uncovered`, so a zero
  // bound is a proof of zero current gain, and survivors are handed to
  // visit in stream order against the live state.
  const std::size_t chunk =
      std::max<std::size_t>(64, m / (8 * engine->num_threads()));
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  Count* const bounds = scratch.Allocate<Count>(chunk);
  for (std::size_t pos = 0; pos < m; pos += chunk) {
    if (uncovered.None()) return;
    const std::size_t width = std::min(chunk, m - pos);
    engine->ParallelFor(
        width,
        [&](std::size_t k) {
          bounds[k] = stream.ItemAt(pos + k).set.CountAnd(uncovered);
        },
        trace);
    for (std::size_t k = 0; k < width; ++k) {
      if (bounds[k] > 0) {
        visit(stream.ItemAt(pos + k), bounds[k], /*bound_is_exact=*/false);
      }
    }
  }
}

}  // namespace streamsc
