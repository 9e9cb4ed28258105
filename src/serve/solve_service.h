#ifndef STREAMSC_SERVE_SOLVE_SERVICE_H_
#define STREAMSC_SERVE_SOLVE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/solve_session.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "serve/frame.h"
#include "serve/request_ring.h"
#include "serve/wire.h"
#include "storage/instance_cache.h"

/// \file solve_service.h
/// SolveService: the long-lived solve daemon.
///
/// Shape (one acceptor, N workers, one bounded ring between them):
///
///   clients ──► acceptor ──► RequestRing (fds) ──► worker[0..N)
///                  │ full?                            │
///                  └── BUSY (kUnavailable) + close    └── per-slot
///                                                         SolveSessions
///
/// * **Admission control**: the ring's capacity is the daemon's entire
///   queueing policy. A full ring never blocks the acceptor and never
///   queues unboundedly — the client gets a typed BUSY frame immediately
///   and can retry. The e2e tests pin this: a filled ring answers
///   kUnavailable, it does not abort or hang.
/// * **Open-once / serve-many**: instances are registered into an
///   InstanceCache (one mmap + one validation pass per load). Each worker
///   slot lazily binds a per-slot SolveSession over an MmapStreamView of
///   the cached mapping, so concurrent solves of the same instance share
///   bytes but never a cursor.
/// * **Live reload**: a kReload request (or ReloadInstance()) adds,
///   refreshes, or retires instances while the daemon serves. Slots pin
///   the mapping they bound via shared ownership and compare cache
///   generations per request, so an in-flight solve finishes on the
///   bytes it started with and the next request on that slot rebinds the
///   new generation — zero failed in-flight requests across a swap.
/// * **Warm slots**: a slot's sessions persist across requests — the run
///   arena reaches its zero-alloc steady state exactly as in embedded
///   use, and `memory_budget` makes an oversized request return
///   RESOURCE_EXHAUSTED while the daemon keeps serving.
/// * **Stats**: every slot owns a mutex-guarded CounterSet +
///   LatencyHistogram shard; a kStats request (or WriteStats) merges the
///   shards with the acceptor's and renders Prometheus exposition text —
///   queue-depth/capacity gauges, request/busy counters, and the
///   request-latency summary with p50/p90/p99.
/// * **Tracing**: with ServiceOptions::enable_trace each slot arms a
///   TraceRecorder; a request with the want-breakdown flag gets the
///   per-pass breakdown marshalled into its report response.
///
/// Every failure a client can cause — malformed frame, unknown instance
/// or solver, bad option, over-budget run, vanished peer — is a Status
/// answered on the wire or a dropped connection; the daemon itself never
/// aborts on request input.

namespace streamsc::serve {

/// Configuration for one SolveService.
struct ServiceOptions {
  /// "unix:PATH" or "tcp:PORT" (loopback; 0 picks a free port, see
  /// SolveService::endpoint() for the resolved one).
  std::string endpoint = "tcp:0";
  /// Worker threads == concurrently served connections.
  std::size_t workers = 2;
  /// Ring slots: connections accepted-but-unclaimed before BUSY.
  std::size_t ring_capacity = 4;
  /// listen(2) backlog (kernel-side, below the ring).
  int backlog = 16;
  /// Engine width passed to every solve (`threads=` session option).
  std::size_t solve_threads = 1;
  /// Server-side arena cap per request. 0 = no server cap: a client's
  /// own memory_budget option passes through. Non-zero overrides
  /// whatever the client sent — the operator's ceiling wins.
  std::size_t memory_budget = 0;
  /// Arms one TraceRecorder per worker slot so requests may ask for the
  /// per-pass breakdown. Off by default (tracing costs ring storage).
  bool enable_trace = false;
};

/// The daemon. Construct, AddInstance() for every servable file, Start(),
/// then Wait() (or Stop() from another thread / a kShutdown request).
class SolveService {
 public:
  explicit SolveService(ServiceOptions options);
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Registers \p path (sscb1 binary) as instance \p name; opens and
  /// validates immediately. Safe before or after Start() (the cache is
  /// concurrent); InvalidArgument if the name is already registered —
  /// use ReloadInstance() to replace.
  Status AddInstance(const std::string& name, const std::string& path);

  /// Adds or refreshes (\p path non-empty) or retires (\p path empty)
  /// instance \p name while serving. In-flight solves finish on the
  /// mapping they bound; subsequent requests see the new state. On
  /// failure the previous binding, if any, keeps serving.
  Status ReloadInstance(const std::string& name, const std::string& path);

  /// Binds the endpoint and launches the acceptor and worker threads.
  Status Start();

  /// Signals shutdown (idempotent, safe from any thread and from the
  /// serving path itself): stops admission, wakes the acceptor, closes
  /// the ring. Queued connections still get served.
  void RequestShutdown();

  /// Blocks until the service has shut down (acceptor and workers
  /// joined). Call from the owning thread after Start().
  void Wait();

  /// RequestShutdown() + Wait().
  void Stop();

  /// The bound endpoint; for "tcp:0" the port is the kernel-assigned one
  /// (valid after a successful Start()).
  const Endpoint& endpoint() const { return endpoint_; }

  /// Renders current service stats as Prometheus exposition text: merged
  /// serve.* counters, queue gauges, and the request-latency summary.
  void WriteStats(std::ostream& out) const;

 private:
  /// One slot's binding of a cached instance: the shared mapping (pinned
  /// so a reload cannot unmap bytes mid-solve), the generation it came
  /// from (staleness check against the cache per request), and the warm
  /// per-slot session over it.
  struct BoundInstance {
    std::shared_ptr<const MmapSetStream> stream;
    std::uint64_t generation = 0;
    SolveSession session;
  };

  /// One worker's private state. Sessions and the trace recorder are
  /// only ever touched by the owning worker thread; the stats shard is
  /// mutex-guarded because kStats scrapes read it cross-thread.
  struct Slot {
    std::map<std::string, BoundInstance> sessions;
    std::unique_ptr<TraceRecorder> trace;
    mutable std::mutex stats_mutex;
    CounterSet counters;
    LatencyHistogram latency;
    // The connection this slot's worker is currently serving (-1 when
    // idle). RequestShutdown half-closes it under conn_mutex so a worker
    // parked in recv() on an idle-but-open connection wakes to a clean
    // EOF instead of pinning Wait() forever; the mutex orders that
    // shutdown(2) against the worker's own clear-then-close.
    std::mutex conn_mutex;
    int active_fd = -1;
  };

  void AcceptLoop();
  void WorkerLoop(Slot* slot);
  /// Serves one connection's frames until EOF/error; returns true if a
  /// kShutdown was processed (the worker then exits its loop naturally
  /// as the ring closes).
  void ServeConnection(Slot* slot, int fd);
  SolveResponse HandleSolve(Slot* slot, const SolveRequest& request);
  std::string RenderStats() const;

  ServiceOptions options_;
  Endpoint endpoint_;
  InstanceCache cache_;
  int listen_fd_ = -1;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::unique_ptr<RequestRing> ring_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  /// Acceptor-side stats (connections seen, BUSY rejections).
  mutable std::mutex accept_stats_mutex_;
  CounterSet accept_counters_;
};

}  // namespace streamsc::serve

#endif  // STREAMSC_SERVE_SOLVE_SERVICE_H_
