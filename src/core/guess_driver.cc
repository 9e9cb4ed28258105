#include "core/guess_driver.h"

#include <algorithm>
#include <cmath>

#include "core/sampling.h"
#include "obs/trace.h"
#include "offline/exact_set_cover.h"
#include "offline/greedy.h"
#include "util/check.h"
#include "util/space_meter.h"

namespace streamsc {
namespace {

// Interned metering categories (hot path: array index per Charge).
const SpaceCategory kProjectionsCat("projections");
const SpaceCategory kSubsolveMemoCat("subsolve_memo");

// Counts one exact sub-solve: its search nodes as "offline.exact_nodes",
// plus one "offline.exact_budget_hits" when the node budget ran out before
// the search finished.
void CountExactSubsolve(const ExactSetCoverResult& result,
                        CounterSet& counters) {
  static const CounterId nodes = CounterId::Counter("offline.exact_nodes");
  static const CounterId budget_hits =
      CounterId::Counter("offline.exact_budget_hits");
  counters.Add(nodes, result.nodes);
  if (!result.complete) counters.Add(budget_hits, 1);
}

// Counts one "offline.exact_budget_failures": a budget-stopped sub-solve
// with no cover within õpt (the guess fails).
void CountExactBudgetFailure(CounterSet& counters) {
  static const CounterId failures =
      CounterId::Counter("offline.exact_budget_failures");
  counters.Add(failures, 1);
}

// Counts one "offline.subsolve_memo_hits": a saturated step that reused
// the memo's sub-solve instead of projecting and solving again.
void CountSubsolveMemoHit(CounterSet& counters) {
  static const CounterId hits =
      CounterId::Counter("offline.subsolve_memo_hits");
  counters.Add(hits, 1);
}

}  // namespace

bool SubsolveMemo::Matches(const DynamicBitset& uncovered) const {
  return valid_ && key_.size() == uncovered.WordCount() &&
         std::equal(key_.begin(), key_.end(), uncovered.WordData());
}

void SubsolveMemo::Store(const DynamicBitset& uncovered, bool solved,
                         const ArenaVector<SetId>& chosen,
                         Bytes projection_bytes) {
  key_.assign(uncovered.WordData(),
              uncovered.WordData() + uncovered.WordCount());
  chosen_.assign(chosen.begin(), chosen.end());
  solved_ = solved;
  projection_bytes_ = projection_bytes;
  valid_ = true;
}

GuessRun::GuessRun(SetStream& stream, const RunContext& context,
                   std::size_t opt_guess, double budget_factor,
                   SubsolveMemo* memo)
    : memo_(memo),
      opt_guess_(opt_guess),
      budget_(budget_factor * static_cast<double>(opt_guess)),
      run_(stream, context) {}

void GuessRun::Prune(double threshold) {
  const TraceSpan phase(trace(), TraceCategory::kPhase, "prune");
  run_.ThresholdPass(threshold);
}

bool GuessRun::Step(double rate, Rng& rng, const char* subsolve_span,
                    SubSolveFn solve) {
  // A saturated sample is U itself and draws nothing from the Rng, so
  // the sub-instance — and a guess-independent sub-solve of it — is a
  // function of U alone: replay the memo's entry if it holds this U.
  EngineContext& ctx = run_.ctx();
  const DynamicBitset& uncovered = run_.uncovered();
  const bool memoizable = memo_ != nullptr && rate >= 1.0;
  if (memoizable && memo_->Matches(uncovered)) {
    CountSubsolveMemoHit(ctx.counters());
    // The memo stands in for the projections the step would have
    // stored, so the guess's space is that of the memo-less step.
    ctx.meter().Charge(memo_->projection_bytes_, kSubsolveMemoCat);
    ctx.meter().Release(memo_->projection_bytes_, kSubsolveMemoCat);
    if (!memo_->solved_) return false;
    run_.TakeAndSubtract(memo_->chosen_);
    return true;
  }

  // Everything this step builds — the sample, the projections, the
  // sub-solution — dies with it: bracket the thread's table arena. (Not
  // the scratch arena: TransformPass stages inside scratch and rewinds
  // it, which would free anything the commit callbacks had kept there.)
  const ArenaCheckpoint step_checkpoint(ThreadTableArena());
  const auto table = ArenaAllocator<SetId>::Table();

  // (a) Sample U_smpl from the still-uncovered universe.
  const DynamicBitset sampled =
      SampleElements(uncovered, rate, rng, DynamicBitset::Allocator(table));
  if (sampled.None()) return true;  // nothing sampled; the step is a no-op
  const SubUniverse sub(sampled, table);

  // (b) One pass storing the projections S'_i = S_i ∩ U_smpl. This is
  // the space-dominant structure: m projections of |U_smpl| bits each
  // dense, fewer when the hybrid store sparsifies them. They live in the
  // table-backed system.
  const StoredProjections projections =
      StoreProjectionPass(ctx, sub, &ThreadTableArena(), table);

  // (c) The solver's offline sub-solve. Manual span: the sub-solve ends
  // mid-scope (before the subtract pass), so an RAII span would swallow
  // the rest of the step.
  ArenaVector<SetId> chosen(table);
  const std::int64_t subsolve_start =
      ctx.trace() != nullptr ? TraceRecorder::NowNs() : 0;
  const bool solved = solve(projections.sets, chosen);
  if (ctx.trace() != nullptr) {
    ctx.trace()->Emit(TraceCategory::kPhase, subsolve_span, subsolve_start,
                      TraceRecorder::NowNs() - subsolve_start);
  }
  for (SetId& id : chosen) id = projections.ids[id];
  // Stored projections are dropped once the sub-instance is solved.
  const Bytes projection_bytes =
      ctx.meter().CategoryCurrent(kProjectionsCat);
  ctx.meter().Release(projection_bytes, kProjectionsCat);
  if (memoizable) memo_->Store(uncovered, solved, chosen, projection_bytes);
  if (!solved) return false;

  // (d) One pass subtracting the chosen sets' *full* contents from U.
  // (The paper stores only projections, so recovering the full contents
  // of OPT' requires this extra pass.)
  run_.TakeAndSubtract(chosen);
  return true;
}

bool GuessRun::SolveExactly(const SetSystem& projections,
                            std::uint64_t node_budget,
                            ArenaVector<SetId>& chosen) {
  STREAMSC_CHECK(memo_ == nullptr,
                 "GuessRun: the exact sub-solve depends on the guess and "
                 "must not be memoized");
  ExactSetCoverOptions options;
  options.max_nodes = node_budget;
  options.size_limit = opt_guess_;
  // The result lands on the run arena: the exact solver brackets the
  // table arena internally, so its result must live elsewhere.
  const ExactSetCoverResult result = SolveExactSetCover(
      projections,
      DynamicBitset::Full(projections.universe_size(),
                          DynamicBitset::Allocator::Table()),
      options, run_.ctx().alloc<SetId>());
  CountExactSubsolve(result, run_.ctx().counters());
  if (!result.feasible) {
    // No cover within õpt: either proven (õpt < opt) or the node budget
    // ran out first. Greedy cannot rescue the latter — the search starts
    // from the greedy cover whenever it fits õpt — so both fail the guess.
    if (!result.complete) CountExactBudgetFailure(run_.ctx().counters());
    return false;
  }
  chosen.assign(result.solution.chosen.begin(), result.solution.chosen.end());
  return true;
}

GuessResult GuessRun::Finish(bool guess_ok, bool cover_residue) {
  const std::uint64_t residual = run_.uncovered().CountSet();

  // Optional cleanup pass guaranteeing feasibility. W.h.p. U is already
  // empty (Lemma 3.11); at laptop scale a small residue can survive, and
  // the paper requires the returned solution to always be feasible.
  if (guess_ok && cover_residue && !run_.uncovered().None()) {
    run_.CoverResiduePass();
  }

  GuessResult result{run_.Finish(), /*within_budget=*/false, residual};
  result.feasible = guess_ok && result.feasible;
  result.within_budget =
      result.feasible &&
      static_cast<double>(result.solution.size()) <= budget_;
  return result;
}

void GreedySubsolve(const SetSystem& projections,
                    ArenaVector<SetId>& chosen) {
  const Solution greedy =
      GreedySetCover(projections, ArenaAllocator<SetId>::Table());
  chosen.assign(greedy.chosen.begin(), greedy.chosen.end());
}

SetCoverRunResult RunGuesses(
    SetStream& stream, const RunContext& context, double growth,
    std::size_t known_opt, std::uint64_t seed,
    FunctionRef<GuessResult(std::size_t opt_guess, Rng& rng,
                            SubsolveMemo& memo)>
        run_guess) {
  Rng rng(seed);
  SubsolveMemo memo(context.arena);
  SetCoverRunResult out;

  const auto try_guess = [&](std::size_t guess) {
    TraceSpan guess_span(context.trace, TraceCategory::kPhase, "guess");
    guess_span.AddArg("opt_guess", guess);
    GuessResult r = run_guess(guess, rng, memo);
    out.stats.MergeFrom(r.stats);
    if (!r.within_budget) return false;
    out.solution = std::move(r.solution);
    out.feasible = true;
    return true;
  };

  if (known_opt > 0) {
    try_guess(known_opt);
  } else {
    std::size_t prev = 0;
    for (double g = 1.0; static_cast<std::size_t>(g) <= stream.universe_size();
         g *= growth) {
      const std::size_t guess = static_cast<std::size_t>(std::ceil(g));
      if (guess == prev) continue;
      prev = guess;
      if (try_guess(guess)) break;
    }
  }
  return out;
}

}  // namespace streamsc
