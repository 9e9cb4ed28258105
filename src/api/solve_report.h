#ifndef STREAMSC_API_SOLVE_REPORT_H_
#define STREAMSC_API_SOLVE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "instance/set_system.h"
#include "obs/counters.h"
#include "stream/stream_algorithm.h"
#include "util/space_meter.h"

/// \file solve_report.h
/// SolveReport: the one result shape every solver in the registry emits,
/// regardless of whether the algorithm underneath is a set-cover scheme,
/// a max-coverage sketch, or the exact pair finder. Callers that drive
/// solvers by string key (CLI, bench sweeps, a future service) consume
/// this instead of the three per-family result structs.

namespace streamsc {

/// Problem family of a registered solver.
enum class SolverKind {
  kSetCover,     ///< Minimum set cover; `feasible` = covered everything.
  kMaxCoverage,  ///< Maximum k-coverage; `extra` = exact coverage.
  kPairFinder,   ///< Exact 2-cover recovery; `extra` = candidates after
                 ///< the first pass, `feasible` = pair found.
};

/// Stable display name for a SolverKind.
const char* SolverKindName(SolverKind kind);

/// One engine pass as the trace recorder saw it: name, wall time, and the
/// deterministic work counters scoped to that pass. Assembled by
/// SolveSession from the run's kPass spans when a TraceRecorder is bound
/// (empty otherwise — the breakdown is an observability product, not part
/// of the deterministic result surface).
struct PassBreakdownRow {
  std::string name;          ///< Pass primitive ("threshold", "subtract"...).
  double wall_seconds = 0.0; ///< Span duration.
  std::uint64_t items_scanned = 0;     ///< Items visited by the pass.
  std::uint64_t shard_jobs = 0;        ///< Engine jobs the pass posted.
  std::uint64_t sets_taken = 0;        ///< Takes committed during the pass.
  std::uint64_t elements_covered = 0;  ///< Marginal gain committed.
};

/// Uniform outcome of one registry-driven run. Everything except
/// wall_seconds is deterministic: bit-identical across thread counts and
/// stream sources for a fixed stream order (the conformance matrix in
/// tests/testing/solver_matrix.h asserts this through the registry).
struct SolveReport {
  std::string solver;     ///< Registry key ("assadi", "sieve_mc", ...).
  std::string algorithm;  ///< Parametrized display name of the instance.
  SolverKind kind = SolverKind::kSetCover;

  Solution solution;       ///< Chosen set ids, in take order.
  bool feasible = false;   ///< Family-specific success bit (see SolverKind).
  std::uint64_t passes = 0;        ///< Stream passes consumed.
  Bytes peak_space_bytes = 0;      ///< Peak logical space (SpaceMeter).
  std::uint64_t extra = 0;         ///< Family-specific scalar (coverage /
                                   ///< surviving candidates); 0 for set
                                   ///< cover.
  double wall_seconds = 0.0;       ///< Wall-clock time of the run, timed
                                   ///< once by AnySolver::RunInto.

  // Filled by SolveSession (empty/1/0 when a solver is run directly).
  std::string source;       ///< "memory", "mmap", or "overlay".
  std::size_t threads = 1;  ///< Engine width the session bound (1 = none).
  Bytes arena_high_water = 0;  ///< Peak bytes live in the run arena —
                               ///< exact physical counterpart of the
                               ///< logical peak_space_bytes.
  Bytes arena_reserved = 0;    ///< Chunk capacity the run arena owns
                               ///< (warm footprint kept across runs).

  // Dynamic-instance (overlay source) runs only; see SolveSession's
  // warm-start contract. Cold runs and non-overlay sources leave these at
  // their defaults.
  bool warm_start = false;  ///< True iff the warm path ran: the surviving
                            ///< prefix of the previous solution was kept
                            ///< and only the residue was re-covered.
  std::uint64_t surviving_prefix = 0;  ///< Chosen sets kept from the
                                       ///< previous solution (warm runs).
  std::uint64_t residue_elements = 0;  ///< Elements left uncovered by the
                                       ///< surviving prefix (warm runs).

  /// Full interned-counter snapshot of the run (obs/counters.h): the
  /// engine.* counters the solver accumulated (items scanned, sets taken,
  /// elements covered; see engine_counters in stream/engine_context.h),
  /// its sub-solver counters, and session-stamped arena gauges.
  CounterSet counters;

  /// Per-pass timing/counter breakdown, in pass order. Filled only when
  /// the session ran with a bound TraceRecorder (see
  /// SolveSession::BindTrace); empty otherwise.
  std::vector<PassBreakdownRow> pass_breakdown;
};

/// What one solver run hands its report, already mapped to the uniform
/// fields: the chosen sets, the family's success bit and extra scalar
/// (see SolverKind), and the run's statistics.
struct SolverRun {
  Solution solution;
  bool feasible = false;
  std::uint64_t extra = 0;
  StreamRunStats stats;
};

/// The one mapping from a run to the uniform report: overwrites every
/// solver-filled field of \p report (names, \p run's fields and stats, the
/// run's \p wall_seconds; no pass breakdown) and leaves the session-filled
/// ones untouched. Every registry run and the session's warm re-solve fill
/// through here, so a new deterministic counter cannot be wired up for one
/// family and silently zeroed for another. String assignments into a
/// reused report keep its capacity, so steady-state refills never
/// allocate.
void FillReport(const std::string& solver, SolverKind kind,
                const std::string& algorithm, const SolverRun& run,
                double wall_seconds, SolveReport* report);

}  // namespace streamsc

#endif  // STREAMSC_API_SOLVE_REPORT_H_
