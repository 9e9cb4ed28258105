#ifndef STREAMSC_API_SOLVE_SESSION_H_
#define STREAMSC_API_SOLVE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "api/solve_report.h"
#include "api/solver_options.h"
#include "instance/set_system.h"
#include "stream/set_stream.h"
#include "util/arena.h"
#include "util/status.h"

/// \file solve_session.h
/// SolveSession: the owning front door for a full solve. One session =
/// one instance source; each Solve() call is one run of one registered
/// solver over that source.
///
/// The session owns everything a run needs that solvers themselves no
/// longer hold:
///
///   * the **source** — Open() takes the stream OpenInstance
///     (storage/mmap_set_stream.h) opens: sscb1 magic → zero-copy
///     MmapSetStream; otherwise ssc1 text, parsed and validated once into
///     a SetSystem that the stream owns. OverSystem() wraps a borrowed
///     in-memory SetSystem;
///   * the **engine lifetime** — the session-level `threads` option
///     (accepted alongside solver options in Solve()'s key=value args)
///     resolves to a ParallelPassEngine owned for exactly the duration
///     of the run, replacing the 9 duplicated non-owning `engine` raw
///     pointers the solver configs used to carry;
///   * the **run arena** — one MonotonicArena per session, Reset()
///     (chunk-retaining) before every run, so repeated solves reach a
///     zero-allocation steady state. The `memory_budget` session option
///     caps the arena's bytes; a run that would exceed it unwinds
///     cleanly and Solve() returns RESOURCE_EXHAUSTED — user-sized input
///     never aborts the process. The report carries the arena's exact
///     high-water mark next to the logical SpaceMeter peak.
///
/// Every failure — unreadable file, unknown solver, malformed option,
/// out-of-range value, stream-dependent misuse — reports a Status; the
/// session never aborts on user input.

namespace streamsc {

class OverlaySetStream;
class TraceRecorder;
struct RunContext;

/// One instance source plus the machinery to run any registered solver
/// over it. Movable; not copyable.
class SolveSession {
 public:
  /// Where the streamed bytes live.
  enum class Source {
    kNone,     ///< Default-constructed (empty) session.
    kMemory,   ///< In-memory SetSystem via VectorSetStream: a borrowed
               ///< one (OverSystem) or an ssc1 file loaded by Open().
    kMmap,     ///< sscb1 binary via MmapSetStream (zero-copy views).
    kOverlay,  ///< Base instance + sscd1 delta via OverlaySetStream.
  };

  /// Opens \p path through OpenInstance, which sniffs the format from its
  /// magic bytes: sscb1 is mapped (source kMmap), anything else is parsed
  /// as ssc1 text in full before Open() returns (source kMemory). Returns
  /// a Status for missing/corrupt files — NotFound if unreadable,
  /// InvalidArgument for any malformed byte.
  static StatusOr<SolveSession> Open(const std::string& path);

  /// Wraps \p system (borrowed — must outlive the session).
  static SolveSession OverSystem(const SetSystem& system);

  /// Wraps an owned, ready-to-stream source (e.g. an MmapStreamView over
  /// a cached MmapSetStream — the solve daemon's open-once / serve-many
  /// shape). \p source labels the report ("mmap" for cached views).
  static SolveSession OverStream(std::unique_ptr<SetStream> stream,
                                 Source source);

  /// Opens \p base_path (sscb1 or ssc1, sniffed) composed with the sscd1
  /// delta log at \p delta_path into one live instance — the dynamic-
  /// instance source. Solves over it gain the warm-start contract:
  ///
  ///   * After a feasible set-cover solve, the session memoizes which
  ///     (slot, version) pairs the solution chose.
  ///   * RefreshDelta() re-reads the delta log (the watch-mode beat).
  ///   * The next Solve() of the *same solver and options* keeps the
  ///     longest prefix of the previous solution whose slots are still
  ///     live and unreplaced, subtracts it, and re-covers only the
  ///     residue (CoverResiduePass) — falling back to a cold solve when
  ///     the delta invalidated more than half the previous solution, or
  ///     when `warm=0` is passed. The decision, surviving prefix, and
  ///     residue size are stamped into the report and the `dynamic.*`
  ///     counters.
  ///
  /// Warm and cold paths both return *feasible covers over the same live
  /// instance*; with an unchanged delta they are byte-identical.
  static StatusOr<SolveSession> OpenOverlay(const std::string& base_path,
                                            const std::string& delta_path);

  /// Re-reads the overlay session's delta log from disk (base untouched).
  /// FailedPrecondition for non-overlay sources. Across an append-only
  /// refresh the memoized solution is kept — per-slot versions decide at
  /// the next Solve() what survived. If the refresh fails (the overlay
  /// retains its previous composition) or the log shrank (a re-created
  /// delta file, where versions no longer identify content), the memo is
  /// dropped and the next Solve() runs cold.
  Status RefreshDelta();

  /// The overlay stream (null for non-overlay sources). Borrowed; valid
  /// while the session lives.
  const OverlaySetStream* overlay() const { return overlay_; }

  /// Re-targets this session at \p path (same sniffing as Open), keeping
  /// the warm run arena so per-slot daemon sessions reach a zero-
  /// allocation steady state across instances.
  ///
  /// Reuse contract (regression-pinned in solve_session_test.cc): the old
  /// source is detached *before* the open is attempted, so a failed
  /// Reopen — missing file, bad magic, truncated sscb1 — leaves the
  /// session empty (Solve() then reports FailedPrecondition), never
  /// half-bound to a stale stream or loaded system from the previous
  /// source. A later successful Reopen on the same session behaves
  /// exactly like a fresh Open.
  Status Reopen(const std::string& path);

  /// Empty session (exists for StatusOr plumbing; Solve() on it errors).
  SolveSession() = default;

  SolveSession(SolveSession&&) = default;
  SolveSession& operator=(SolveSession&&) = default;
  SolveSession(const SolveSession&) = delete;
  SolveSession& operator=(const SolveSession&) = delete;

  /// The session-level option schema (currently: threads and
  /// memory_budget). Listed by
  /// `workload_tool solvers` next to each solver's own options; any of
  /// these keys may appear in Solve()'s args and is consumed by the
  /// session rather than the solver.
  static const std::vector<OptionDescriptor>& SessionOptions();

  /// Runs registered solver \p solver with \p args (key=value strings;
  /// session keys like `threads=8` are split off, everything else is the
  /// solver's). Owns the engine for the duration of the run and stamps
  /// `source` and `threads` into the returned report.
  StatusOr<SolveReport> Solve(const std::string& solver,
                              const std::vector<std::string>& args);

  /// Binds a span recorder (obs/trace.h) for every subsequent Solve():
  /// the run emits session/solver/pass/shard spans into it, and the
  /// report gains a per-pass breakdown assembled from the recorder after
  /// the run quiesces. Borrowed — must outlive the session's runs; null
  /// detaches. Tracing never changes results (solutions are byte-
  /// identical with the recorder on or off), it only arms observability.
  void BindTrace(TraceRecorder* recorder) { trace_ = recorder; }

  Source source() const { return source_; }

  /// "memory", "mmap", "overlay" (or "none").
  const char* source_name() const;

  std::size_t universe_size() const;
  std::size_t num_sets() const;

 private:
  // One chosen set of the memoized previous solution, identified by its
  // overlay slot and the slot's version at memo time. The pair still
  // denotes the same set content iff the slot is live and its version
  // unchanged — the warm-start survival test.
  struct MemoEntry {
    std::uint64_t slot = 0;
    std::uint64_t version = 0;
  };

  // The surviving prefix of the memoized solution as *current* live ids:
  // the longest prefix whose slots are live with unchanged versions.
  std::vector<SetId> SurvivingPrefix() const;

  // The warm path: subtract the surviving prefix from a full universe,
  // re-cover the residue, and assemble a report without running the
  // solver. Precondition: overlay source with a valid memo.
  StatusOr<SolveReport> RunWarmStart(const std::vector<SetId>& prefix,
                                     const RunContext& context);

  // Memoizes (or refuses to memoize) the just-completed overlay run and
  // stamps the dynamic.* counters into its report.
  void FinishOverlayRun(const std::string& solver,
                        const std::vector<std::string>& solver_args,
                        SolveReport* report);

  Source source_ = Source::kNone;
  std::unique_ptr<SetStream> stream_;
  // The per-run arena: lazily created on first Solve(), Reset()
  // (chunk-retaining) before each run. unique_ptr because the session is
  // movable and arenas are pinned by design.
  std::unique_ptr<MonotonicArena> run_arena_;
  // Non-owning view of stream_ when it is an OverlaySetStream (the
  // dynamic-instance source): RefreshDelta and the warm-start path need
  // the overlay surface without downcasting.
  OverlaySetStream* overlay_ = nullptr;
  // Optional span recorder bound via BindTrace(); borrowed, never owned.
  TraceRecorder* trace_ = nullptr;
  // Warm-start memo: the previous feasible set-cover solution as
  // (slot, version) pairs, plus the configuration it answers for.
  std::vector<MemoEntry> memo_;
  std::string memo_solver_;
  std::vector<std::string> memo_solver_args_;
  std::string memo_algorithm_;
  bool memo_valid_ = false;
};

}  // namespace streamsc

#endif  // STREAMSC_API_SOLVE_SESSION_H_
