#ifndef STREAMSC_CORE_GUESS_DRIVER_H_
#define STREAMSC_CORE_GUESS_DRIVER_H_

#include <cstdint>

#include "core/cover_run.h"
#include "instance/set_system.h"
#include "stream/engine_context.h"
#include "stream/stream_algorithm.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/function_ref.h"
#include "util/random.h"

/// \file guess_driver.h
/// The shape Algorithm 1 (Theorem 2) shares with its two baselines,
/// Har-Peled et al. (PODS 2016) and DIMV'14: guess the optimum õpt
/// geometrically, and per guess repeat one step — sample U, store the
/// projections of every set onto the sample, solve that sub-instance
/// offline, subtract the chosen sets' full contents from U. This file
/// holds the guess loop (RunGuesses) and the per-guess state with its
/// step (GuessRun) once; each solver keeps only its pruning, its sampling
/// rate and its sub-solver. GuessRun is built on CoverRun
/// (core/cover_run.h), which keeps the guess's U and solution and meters
/// both; GuessRun adds the guess's budget, the projections of each step
/// and the sub-solve memo.
///
/// The paper runs the O(log n) guesses in parallel within shared passes;
/// RunGuesses runs them sequentially from the smallest guess and stops at
/// the first success. That preserves the space bound per guess but spends
/// a full pass budget on every guess tried, so the reported pass count is
/// the actual total, not the paper's 2α+1.
///
/// Sequential guesses often solve the same sub-instance: when a step's
/// sampling rate saturates (rate ≥ 1) the sample is U itself, so the
/// projections depend only on U. RunGuesses therefore keeps a one-entry
/// SubsolveMemo, and a guess whose sub-solve does not depend on õpt (a
/// greedy one) reuses the previous saturated step's chosen ids when U is
/// word-for-word the same. Such a hit skips the projection pass and the
/// sub-solve; covers, space and the Rng stream are exactly those of the
/// memo-less run, and the pass count is still the number of passes made.

namespace streamsc {

/// Outcome of one guess õpt (one RunWithGuess of a sampling solver): the
/// guess's solution and stats, feasible only if the guess itself
/// succeeded and covered everything.
struct GuessResult : SetCoverRunResult {
  bool within_budget = false;    ///< Feasible with ≤ budget_factor·õpt sets.
  std::uint64_t residual_after_iterations = 0;  ///< |U| left before cleanup.
};

/// Solves a projected sub-instance: writes the chosen local set ids into
/// \p chosen (empty on entry) and returns false iff the guess fails.
using SubSolveFn =
    FunctionRef<bool(const SetSystem& projections, ArenaVector<SetId>& chosen)>;

/// The last saturated sub-solve of a run: U's words at step entry (the
/// key), whether the sub-solve succeeded, the chosen global set ids in
/// take order and the bytes its projections were charged. RunGuesses owns
/// one on the run arena and hands it to every guess; only a GuessRun
/// reads or replaces it.
class SubsolveMemo {
 public:
  explicit SubsolveMemo(MonotonicArena* arena)
      : key_(ArenaAllocator<DynamicBitset::Word>(arena)),
        chosen_(ArenaAllocator<SetId>(arena)) {}

 private:
  friend class GuessRun;

  bool Matches(const DynamicBitset& uncovered) const;
  void Store(const DynamicBitset& uncovered, bool solved,
             const ArenaVector<SetId>& chosen, Bytes projection_bytes);

  bool valid_ = false;
  bool solved_ = false;
  Bytes projection_bytes_ = 0;
  ArenaVector<DynamicBitset::Word> key_;
  ArenaVector<SetId> chosen_;
};

/// The state of one guess: a CoverRun (the guess's ledger of passes,
/// space and counters, its uncovered elements U and solution so far) plus
/// the guess's budget and the run's sub-solve memo.
class GuessRun {
 public:
  /// A guess succeeds with a feasible cover of at most
  /// budget_factor·opt_guess sets. A non-null \p memo lets saturated
  /// Steps reuse an earlier guess's sub-solve; pass one only when the
  /// solver's sub-solve does not depend on õpt (never with SolveExactly).
  GuessRun(SetStream& stream, const RunContext& context,
           std::size_t opt_guess, double budget_factor,
           SubsolveMemo* memo = nullptr);

  GuessRun(const GuessRun&) = delete;
  GuessRun& operator=(const GuessRun&) = delete;

  const DynamicBitset& uncovered() const { return run_.uncovered(); }
  TraceRecorder* trace() const { return run_.ctx().trace(); }

  /// One "prune" pass taking every set that still covers at least
  /// \p threshold uncovered elements.
  void Prune(double threshold);

  /// One sample/store/solve/subtract step: samples U at \p rate; if the
  /// sample is non-empty, stores every set's projection onto it in one
  /// pass, runs \p solve under a \p subsolve_span trace span, takes the
  /// chosen sets and subtracts their full contents from U in a second
  /// pass. Returns false iff \p solve failed the guess (nothing is taken
  /// then).
  ///
  /// With a memo bound and rate ≥ 1 the sample is U and draws nothing
  /// from \p rng, so the sub-instance depends only on U. If the memo
  /// holds this U, the step skips the projection pass and \p solve (no
  /// span, one "offline.subsolve_memo_hits"), takes the stored ids and
  /// runs the subtract pass as usual; the memo's "subsolve_memo" space
  /// category stands in for the projections it replays, at their size.
  /// Otherwise it runs as above and then replaces the memo's entry.
  bool Step(double rate, Rng& rng, const char* subsolve_span,
            SubSolveFn solve);

  /// The paper's *optimal* sub-solve (step 3c of Algorithm 1) under a
  /// node budget: a cover of at most õpt sets, or false. Its size limit
  /// is õpt, so it CHECK-fails on a GuessRun with a memo bound.
  bool SolveExactly(const SetSystem& projections, std::uint64_t node_budget,
                    ArenaVector<SetId>& chosen);

  /// Closes the guess. If \p cover_residue and the guess has not failed,
  /// a cleanup pass first covers whatever U still holds.
  GuessResult Finish(bool guess_ok, bool cover_residue);

 private:
  SubsolveMemo* memo_;
  std::size_t opt_guess_;
  double budget_;
  CoverRun run_;
};

/// Greedy on the projections: \p chosen gets its picks, which cover as
/// much of the sample as the sets can.
void GreedySubsolve(const SetSystem& projections, ArenaVector<SetId>& chosen);

/// The geometric-guess driver: runs \p run_guess on õpt = known_opt alone
/// if it is set, else on õpt = ceil(growth^j) for j = 0, 1, ... up to the
/// universe size, stopping at the first guess whose result is within
/// budget (larger guesses only allow larger covers). Every guess runs in
/// a "guess" trace span and shares one Rng seeded with \p seed and one
/// SubsolveMemo on the run arena. Passes, take counters and interned
/// counters add up over the guesses tried, peak space is their maximum.
SetCoverRunResult RunGuesses(
    SetStream& stream, const RunContext& context, double growth,
    std::size_t known_opt, std::uint64_t seed,
    FunctionRef<GuessResult(std::size_t opt_guess, Rng& rng,
                            SubsolveMemo& memo)>
        run_guess);

}  // namespace streamsc

#endif  // STREAMSC_CORE_GUESS_DRIVER_H_
