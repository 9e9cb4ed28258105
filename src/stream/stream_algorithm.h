#ifndef STREAMSC_STREAM_STREAM_ALGORITHM_H_
#define STREAMSC_STREAM_STREAM_ALGORITHM_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "instance/set_system.h"
#include "obs/counters.h"
#include "stream/set_stream.h"
#include "util/space_meter.h"

/// \file stream_algorithm.h
/// Interfaces for streaming set cover / maximum coverage algorithms and
/// the per-run statistics the benchmark harness reports (passes, peak
/// logical space, engine counters).
///
/// Execution resources (the ParallelPassEngine) are bound **per run**
/// through a RunContext, not baked into solver configs: a solver object
/// holds only algorithm parameters and can be reused across runs with
/// different thread pools, streams, and sources. This is the one place a
/// future sharded/NUMA scheduler has to plug into.

namespace streamsc {

class ParallelPassEngine;
class MonotonicArena;
class TraceRecorder;

/// Per-run execution binding. Passed to Run() alongside the stream; a
/// default-constructed context means "sequential, heap-allocating".
/// Nothing in it is owned — the engine and arena (when present) must
/// outlive the run. Callers who want a pool resolve a thread count via
/// MakeEngine() (engine_context.h) or let SolveSession
/// (api/solve_session.h) own both lifetimes for them.
struct RunContext {
  /// Optional worker pool. When non-null, engine-routed passes shard
  /// across it; results are bit-identical for any thread count.
  ParallelPassEngine* engine = nullptr;

  /// Optional per-run arena for the solver's working state and returned
  /// solution. Single-threaded: only the orchestrating thread allocates
  /// from it (workers stage in their thread-local scratch arenas).
  /// Null means every container falls back to the heap — results are
  /// byte-identical either way; only the physical memory source changes.
  /// A budgeted arena surfaces exhaustion as ArenaBudgetExceeded, which
  /// the api layer converts to a ResourceExhausted Status.
  MonotonicArena* arena = nullptr;

  /// Optional span recorder (obs/trace.h). Null — the default — reduces
  /// every trace hook in the engine and the solvers to a single branch,
  /// preserving the zero-alloc steady-state and TSan-clean contracts.
  /// When bound, the engine emits per-pass and per-shard spans and the
  /// solvers annotate their algorithm phases; the recorder must outlive
  /// the run and is merged by the caller after the run quiesces.
  /// Tracing never changes results: solutions are byte-identical with
  /// the recorder on or off (the conformance matrix pins this).
  TraceRecorder* trace = nullptr;
};

/// Per-run resource statistics: the paper's two measures plus the
/// engine's work counts. A run's EngineContext is its only ledger and
/// builds these with Stats(): passes is its engine.passes counter (every
/// pass primitive counts itself), peak space is its SpaceMeter's peak.
/// Everything is deterministic: for a fixed stream order the values are
/// bit-identical across thread counts and stream sources (the conformance
/// matrix in tests/testing/solver_matrix.h pins this down for every
/// solver, and checks passes against the stream's own pass count).
struct StreamRunStats {
  std::uint64_t passes = 0;       ///< Passes over the stream (engine.passes).
  Bytes peak_space_bytes = 0;     ///< Peak logical space (SpaceMeter).

  /// Full interned-counter snapshot (obs/counters.h): every engine.*
  /// counter the run's EngineContexts accumulated (see engine_counters
  /// in stream/engine_context.h), merged across guess iterations. Items
  /// scanned, sets taken and elements covered are read from here.
  CounterSet counters;

  /// Folds in the stats of a run made after this one (one guess of a
  /// guess loop): passes and counters add up, peak space is the maximum.
  void MergeFrom(const StreamRunStats& other) {
    passes += other.passes;
    peak_space_bytes = std::max(peak_space_bytes, other.peak_space_bytes);
    counters.MergeFrom(other.counters);
  }
};

/// Outcome of a streaming set cover run.
struct SetCoverRunResult {
  Solution solution;        ///< Chosen set ids (system numbering).
  bool feasible = false;    ///< True iff the solution covers the universe.
  StreamRunStats stats;
};

/// Outcome of a streaming maximum coverage run.
struct MaxCoverageRunResult {
  Solution solution;        ///< Chosen set ids (at most k).
  Count coverage = 0;       ///< Exact coverage of the returned sets.
  StreamRunStats stats;
};

/// A multi-pass streaming algorithm for minimum set cover.
class StreamingSetCoverAlgorithm {
 public:
  virtual ~StreamingSetCoverAlgorithm() = default;

  /// Human-readable algorithm name for tables.
  virtual std::string name() const = 0;

  /// Consumes \p stream (any number of passes) and returns a cover,
  /// binding the execution resources in \p context for this run only.
  virtual SetCoverRunResult Run(SetStream& stream,
                                const RunContext& context) = 0;

  /// Sequential convenience overload. (Derived classes re-expose it with
  /// `using StreamingSetCoverAlgorithm::Run;`.)
  SetCoverRunResult Run(SetStream& stream) { return Run(stream, {}); }
};

/// A multi-pass streaming algorithm for maximum k-coverage.
class StreamingMaxCoverageAlgorithm {
 public:
  virtual ~StreamingMaxCoverageAlgorithm() = default;

  /// Human-readable algorithm name for tables.
  virtual std::string name() const = 0;

  /// Consumes \p stream and returns (up to) k sets, binding the execution
  /// resources in \p context for this run only.
  virtual MaxCoverageRunResult Run(SetStream& stream, std::size_t k,
                                   const RunContext& context) = 0;

  /// Sequential convenience overload. (Derived classes re-expose it with
  /// `using StreamingMaxCoverageAlgorithm::Run;`.)
  MaxCoverageRunResult Run(SetStream& stream, std::size_t k) {
    return Run(stream, k, {});
  }
};

}  // namespace streamsc

#endif  // STREAMSC_STREAM_STREAM_ALGORITHM_H_
