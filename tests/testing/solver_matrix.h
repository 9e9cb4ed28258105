#ifndef STREAMSC_TESTS_TESTING_SOLVER_MATRIX_H_
#define STREAMSC_TESTS_TESTING_SOLVER_MATRIX_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/solve_report.h"
#include "api/solve_session.h"
#include "api/solver_registry.h"
#include "core/pair_finder.h"
#include "instance/serialization.h"
#include "instance/set_system.h"
#include "obs/trace.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "stream/engine_context.h"
#include "stream/set_stream.h"
#include "stream/stream_algorithm.h"
#include "testing/scoped_temp_dir.h"
#include "util/bitset.h"

/// \file solver_matrix.h
/// The cross-algorithm conformance matrix: one harness that proves, for
/// any streaming solver, the determinism contract the ParallelPassEngine
/// promises — **byte-identical solutions, covers, and deterministic stats**
/// across every combination of
///
///   stream source x engine:  {VectorSetStream, MmapSetStream}
///                             x {none, 1, 2, 8 threads}.
///
/// Peak space is asserted thread-count-invariant *within* a stream source;
/// the session overload below also pins it equal to the in-memory
/// baseline for both on-disk formats.
///
/// Since the unified-API redesign, the matrix is driven through the
/// public front door: RunConformanceMatrix(system, solver, options)
/// constructs every cell's solver from the string-keyed SolverRegistry
/// and additionally proves that the owning SolveSession (source sniffing
/// + engine lifetime from `threads=`) reproduces the same bytes from both
/// on-disk formats. The SolverFn overload remains for harnesses that need
/// a custom stream (e.g. random arrival orders).
///
/// This replaces the per-algorithm ad-hoc determinism checks that used to
/// live in the engine and mmap test suites: a solver is conformant iff its
/// adapter runs through RunConformanceMatrix green.

namespace streamsc {
namespace testing {

/// The observable outcome of one solver run, reduced to the fields the
/// determinism contract covers. wall_seconds and other scheduling-
/// dependent measurements are intentionally absent.
struct SolverOutcome {
  ArenaVector<SetId> chosen;           ///< Solution ids, in take order.
  bool feasible = false;               ///< Solver-reported success bit.
  std::uint64_t passes = 0;
  std::uint64_t items_scanned = 0;     ///< engine.items_scanned.
  std::uint64_t sets_taken = 0;        ///< engine.sets_taken.
  std::uint64_t elements_covered = 0;  ///< engine.elements_covered.
  Bytes peak_space_bytes = 0;
  std::uint64_t extra = 0;             ///< Solver-specific deterministic
                                       ///< scalar (coverage, candidates…).
};

/// The counts every result shape reports: passes and peak space from the
/// run's ledger, the engine's work from its counters. (Passes are the
/// engine.passes counter; RegistrySolverFn checks them against the
/// stream's own pass count.)
inline SolverOutcome OutcomeCounts(std::uint64_t passes, Bytes peak_space_bytes,
                                   const CounterSet& counters) {
  SolverOutcome out;
  out.passes = passes;
  out.items_scanned = counters.value(engine_counters::ItemsScanned());
  out.sets_taken = counters.value(engine_counters::SetsTaken());
  out.elements_covered = counters.value(engine_counters::ElementsCovered());
  out.peak_space_bytes = peak_space_bytes;
  return out;
}

/// Adapters from the four run-result shapes to the canonical outcome.
inline SolverOutcome ToOutcome(const SetCoverRunResult& r) {
  SolverOutcome out = OutcomeCounts(r.stats.passes, r.stats.peak_space_bytes,
                                    r.stats.counters);
  out.chosen = r.solution.chosen;
  out.feasible = r.feasible;
  return out;
}

inline SolverOutcome ToOutcome(const MaxCoverageRunResult& r) {
  SolverOutcome out = OutcomeCounts(r.stats.passes, r.stats.peak_space_bytes,
                                    r.stats.counters);
  out.chosen = r.solution.chosen;
  out.feasible = !r.solution.chosen.empty();
  out.extra = r.coverage;
  return out;
}

inline SolverOutcome ToOutcome(const PairFinderResult& r) {
  SolverOutcome out = OutcomeCounts(r.stats.passes, r.stats.peak_space_bytes,
                                    r.stats.counters);
  out.chosen = r.solution.chosen;
  out.feasible = r.found;
  out.extra = r.candidates_after_first_pass;
  return out;
}

inline SolverOutcome ToOutcome(const SolveReport& r) {
  SolverOutcome out = OutcomeCounts(r.passes, r.peak_space_bytes, r.counters);
  out.chosen = r.solution.chosen;
  out.feasible = r.feasible;
  out.extra = r.extra;
  return out;
}

/// A solver under test: run once over the given stream, with the given
/// engine (may be null), and report the canonical outcome. The adapter
/// must construct a fresh solver per call — the harness calls it once per
/// matrix cell.
using SolverFn = std::function<SolverOutcome(SetStream&, ParallelPassEngine*)>;

/// A SolverFn that builds the solver from the global SolverRegistry by
/// string key + key=value options — the same construction path every
/// external caller (CLI, bench sweep, service) uses.
///
/// Every cell runs **three times**: once heap-allocating (no run arena),
/// once over a fresh MonotonicArena, and once with a TraceRecorder armed,
/// asserting all outcomes are byte-identical — the arena is a memory
/// placement decision and tracing is a pure observer; neither is ever an
/// algorithmic one. The arena-backed outcome is returned.
///
/// Each run also reads the stream's own passes() around the solve and
/// asserts the delta equals the reported passes: the report counts only
/// passes made through EngineContext, so a pass a solver drives around it
/// shows up here.
inline SolverFn RegistrySolverFn(std::string solver,
                                 std::vector<std::string> options) {
  return [solver = std::move(solver), options = std::move(options)](
             SetStream& stream, ParallelPassEngine* engine) -> SolverOutcome {
    auto run_once = [&](MonotonicArena* arena,
                        TraceRecorder* trace) -> std::optional<SolverOutcome> {
      StatusOr<std::unique_ptr<AnySolver>> created =
          SolverRegistry::Global().Create(solver, options);
      if (!created.ok()) {
        ADD_FAILURE() << "registry rejected '" << solver
                      << "': " << created.status().ToString();
        return std::nullopt;
      }
      RunContext context;
      context.engine = engine;
      context.arena = arena;
      context.trace = trace;
      const std::uint64_t stream_passes_at_start = stream.passes();
      StatusOr<SolveReport> report = (*created)->Run(stream, context);
      if (!report.ok()) {
        ADD_FAILURE() << "'" << solver
                      << "' run failed: " << report.status().ToString();
        return std::nullopt;
      }
      EXPECT_EQ(stream.passes() - stream_passes_at_start, report->passes)
          << "a pass ran outside EngineContext";
      EXPECT_GT(report->wall_seconds, 0.0) << "the wrapper did not time Run";
      return ToOutcome(*report);
    };
    const std::optional<SolverOutcome> heap_outcome = run_once(nullptr, nullptr);
    MonotonicArena arena;
    const std::optional<SolverOutcome> arena_outcome = run_once(&arena, nullptr);
    TraceRecorder trace;
    const std::optional<SolverOutcome> traced_outcome =
        run_once(nullptr, &trace);
    if (!heap_outcome.has_value() || !arena_outcome.has_value() ||
        !traced_outcome.has_value()) {
      return SolverOutcome{};
    }
    EXPECT_EQ(arena_outcome->chosen, heap_outcome->chosen)
        << "arena-backed run diverged from the heap run";
    EXPECT_EQ(arena_outcome->feasible, heap_outcome->feasible);
    EXPECT_EQ(arena_outcome->passes, heap_outcome->passes);
    EXPECT_EQ(arena_outcome->items_scanned, heap_outcome->items_scanned);
    EXPECT_EQ(arena_outcome->sets_taken, heap_outcome->sets_taken);
    EXPECT_EQ(arena_outcome->elements_covered, heap_outcome->elements_covered);
    EXPECT_EQ(arena_outcome->peak_space_bytes, heap_outcome->peak_space_bytes);
    EXPECT_EQ(arena_outcome->extra, heap_outcome->extra);
    EXPECT_EQ(traced_outcome->chosen, heap_outcome->chosen)
        << "arming a TraceRecorder changed the solution";
    EXPECT_EQ(traced_outcome->feasible, heap_outcome->feasible);
    EXPECT_EQ(traced_outcome->passes, heap_outcome->passes);
    EXPECT_EQ(traced_outcome->items_scanned, heap_outcome->items_scanned);
    EXPECT_EQ(traced_outcome->sets_taken, heap_outcome->sets_taken);
    EXPECT_EQ(traced_outcome->elements_covered,
              heap_outcome->elements_covered);
    EXPECT_EQ(traced_outcome->peak_space_bytes,
              heap_outcome->peak_space_bytes);
    EXPECT_EQ(traced_outcome->extra, heap_outcome->extra);
    // Every traced run records at least the solver span.
    EXPECT_GT(trace.events_recorded(), 0u);
    return *arena_outcome;
  };
}

/// The cover (as a full-universe bitset) achieved by \p chosen on
/// \p system.
inline DynamicBitset CoverOf(const SetSystem& system,
                             std::span<const SetId> chosen) {
  DynamicBitset covered(system.universe_size());
  for (SetId id : chosen) system.set(id).OrInto(covered);
  return covered;
}

/// Runs \p solve across the full {memory, mmap} x {none, 1, 2, 8 threads}
/// matrix on \p system and asserts every cell reproduces the engine-less
/// in-memory baseline byte for byte.
inline void RunConformanceMatrix(const SetSystem& system,
                                 const SolverFn& solve) {
  ScopedTempDir dir;
  const std::string binary_path = dir.FilePath("matrix.sscb1");
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, binary_path).ok());

  // Baseline: in-memory stream, no engine — the plain sequential solver.
  VectorSetStream baseline_stream(system);
  const SolverOutcome baseline = solve(baseline_stream, nullptr);
  const DynamicBitset baseline_cover = CoverOf(system, baseline.chosen);
  // A degenerate baseline (nothing chosen, solver reporting failure)
  // would make every identity below pass vacuously; the matrix instances
  // are chosen so each solver genuinely succeeds.
  EXPECT_TRUE(baseline.feasible) << "baseline run failed";
  EXPECT_FALSE(baseline.chosen.empty()) << "baseline chose nothing";

  const char* const kSourceNames[] = {"memory", "mmap"};
  // 0 encodes "no engine"; otherwise a pool of that many threads.
  const std::size_t kThreadCells[] = {0, 1, 2, 8};

  for (int source = 0; source < 2; ++source) {
    std::optional<Bytes> source_space;  // thread-invariant within a source
    for (const std::size_t threads : kThreadCells) {
      SCOPED_TRACE(std::string("source=") + kSourceNames[source] +
                   " threads=" + (threads == 0 ? "none"
                                               : std::to_string(threads)));
      std::optional<ParallelPassEngine> engine;
      if (threads > 0) engine.emplace(threads);

      SolverOutcome outcome;
      if (source == 0) {
        VectorSetStream stream(system);
        outcome = solve(stream, engine ? &*engine : nullptr);
      } else {
        MmapSetStream stream(binary_path);
        ASSERT_TRUE(stream.status().ok()) << stream.status().ToString();
        outcome = solve(stream, engine ? &*engine : nullptr);
      }

      EXPECT_EQ(outcome.chosen, baseline.chosen);
      EXPECT_EQ(outcome.feasible, baseline.feasible);
      EXPECT_TRUE(CoverOf(system, outcome.chosen) == baseline_cover);
      EXPECT_EQ(outcome.passes, baseline.passes);
      EXPECT_EQ(outcome.items_scanned, outcome.passes * system.num_sets())
          << "every pass scans every set";
      EXPECT_EQ(outcome.items_scanned, baseline.items_scanned);
      EXPECT_EQ(outcome.sets_taken, baseline.sets_taken);
      EXPECT_EQ(outcome.elements_covered, baseline.elements_covered);
      EXPECT_EQ(outcome.extra, baseline.extra);
      if (!source_space.has_value()) {
        source_space = outcome.peak_space_bytes;
      } else {
        EXPECT_EQ(outcome.peak_space_bytes, *source_space);
      }
    }
  }
}

/// Registry/session-driven matrix: constructs every cell's solver from
/// the global SolverRegistry (string key + key=value options) and runs
/// the full stream-source x thread-count matrix, then proves the
/// SolveSession front door — which owns source sniffing and the engine
/// lifetime via `threads=` — reproduces the engine-less in-memory
/// baseline byte for byte — peak space included — from both on-disk
/// formats.
inline void RunConformanceMatrix(const SetSystem& system,
                                 const std::string& solver,
                                 const std::vector<std::string>& options) {
  const SolverFn solve = RegistrySolverFn(solver, options);
  RunConformanceMatrix(system, solve);

  ScopedTempDir dir;
  const std::string text_path = dir.FilePath("session.ssc");
  const std::string binary_path = dir.FilePath("session.sscb1");
  ASSERT_TRUE(SaveSetSystem(system, text_path).ok());
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, binary_path).ok());

  VectorSetStream baseline_stream(system);
  const SolverOutcome baseline = solve(baseline_stream, nullptr);

  for (const std::string& path : {text_path, binary_path}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE("session path=" + path +
                   " threads=" + std::to_string(threads));
      StatusOr<SolveSession> session = SolveSession::Open(path);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      std::vector<std::string> args = options;
      args.push_back("threads=" + std::to_string(threads));
      StatusOr<SolveReport> report = session->Solve(solver, args);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->solver, solver);
      EXPECT_EQ(report->threads, threads);
      EXPECT_GT(report->wall_seconds, 0.0);
      const SolverOutcome outcome = ToOutcome(*report);
      EXPECT_EQ(outcome.chosen, baseline.chosen);
      EXPECT_EQ(outcome.feasible, baseline.feasible);
      EXPECT_EQ(outcome.passes, baseline.passes);
      EXPECT_EQ(outcome.items_scanned, baseline.items_scanned);
      EXPECT_EQ(outcome.sets_taken, baseline.sets_taken);
      EXPECT_EQ(outcome.elements_covered, baseline.elements_covered);
      EXPECT_EQ(outcome.peak_space_bytes, baseline.peak_space_bytes);
      EXPECT_EQ(outcome.extra, baseline.extra);
    }
  }

  // Budget cell: a 1-byte arena budget must surface as a clean
  // RESOURCE_EXHAUSTED Status — never an abort. threads=2 forces the
  // buffered engine path, whose item staging charges the run arena up
  // front, so every solver trips regardless of its own retained state.
  {
    SolveSession session = SolveSession::OverSystem(system);
    std::vector<std::string> args = options;
    args.push_back("threads=2");
    args.push_back("memory_budget=1");
    StatusOr<SolveReport> report = session.Solve(solver, args);
    EXPECT_FALSE(report.ok())
        << "a 1-byte memory_budget was not enforced for '" << solver << "'";
    if (!report.ok()) {
      EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted)
          << report.status().ToString();
    }
    // The session (and its arena) stays usable after a budget trip.
    args.resize(args.size() - 1);
    StatusOr<SolveReport> retry = session.Solve(solver, args);
    EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  }
}

}  // namespace testing
}  // namespace streamsc

#endif  // STREAMSC_TESTS_TESTING_SOLVER_MATRIX_H_
