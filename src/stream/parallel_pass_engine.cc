#include "stream/parallel_pass_engine.h"

#include "obs/trace.h"
#include "util/arena.h"
#include "util/check.h"

namespace streamsc {

ParallelPassEngine::ParallelPassEngine(std::size_t num_threads)
    : num_threads_(num_threads) {
  STREAMSC_CHECK(num_threads >= 1,
                 "ParallelPassEngine: a pool needs at least one thread");
  workers_.reserve(num_threads - 1);
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

void ParallelPassEngine::RunJob() {
  // One branch when untraced: the span start is read only when a
  // recorder rode in on the job.
  const std::int64_t start_ns =
      job_.trace != nullptr ? TraceRecorder::NowNs() : 0;
  std::size_t claimed = 0;
  for (;;) {
    const std::size_t i = job_.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_.count) break;
    (*job_.fn)(i);
    ++claimed;
  }
  if (job_.trace != nullptr && claimed > 0) {
    const TraceArg args[] = {{"job", job_.id}, {"items", claimed}};
    job_.trace->Emit(TraceCategory::kShard, "shard", start_ns,
                     TraceRecorder::NowNs() - start_ns, args, 2);
  }
}

void ParallelPassEngine::WorkerLoop() {
  std::uint64_t last_job_id = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (job_.open && job_.id != last_job_id);
      });
      if (shutdown_) return;
      last_job_id = job_.id;
      ++job_.joined;
    }
    // Worker scratch is job-scoped: anything a previous job staged there
    // has been committed by the orchestrator before it posted this one
    // (the pass primitives copy worker-staged payloads out in their
    // in-order commit phase). Rewinding here, chunks retained, is what
    // keeps worker scratch from growing across passes.
    ThreadScratchArena().Reset();
    RunJob();
    std::lock_guard<std::mutex> lock(mu_);
    ++job_.left;
    if (!job_.open && job_.left == job_.joined) done_cv_.notify_one();
  }
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
  job_.count = count;
  job_.fn = &fn;
  job_.trace = trace;
  job_.next.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++job_.id;
    job_.joined = 0;
    job_.left = 0;
    job_.open = true;
  }
  work_cv_.notify_all();
  RunJob();  // the calling thread participates
  // Every index is claimed. Closing the job fixes who joined it, and a
  // worker claims only after joining, so once they have all left every
  // fn(i) has returned and every shard span is in the recorder.
  std::unique_lock<std::mutex> lock(mu_);
  job_.open = false;
  done_cv_.wait(lock, [&] { return job_.left == job_.joined; });
}

}  // namespace streamsc
