#include "core/assadi_set_cover.h"

#include <algorithm>
#include <cmath>

#include "core/sampling.h"
#include "obs/trace.h"
#include "offline/exact_set_cover.h"
#include "offline/greedy.h"
#include "stream/engine_context.h"
#include "util/check.h"
#include "util/math.h"
#include "util/space_meter.h"
#include "util/stopwatch.h"

namespace streamsc {
namespace {

// Space charged for the solution id list.
Bytes SolutionBytes(std::size_t size) { return size * sizeof(SetId); }

// Interned metering categories (hot path: array index per Charge).
const SpaceCategory kUncoveredCat("uncovered");
const SpaceCategory kSolutionCat("solution");
const SpaceCategory kProjectionsCat("projections");

}  // namespace

AssadiSetCover::AssadiSetCover(AssadiConfig config) : config_(config) {
  STREAMSC_CHECK(config_.alpha >= 1, "AssadiConfig: alpha must be >= 1");
  STREAMSC_CHECK(config_.epsilon > 0.0, "AssadiConfig: epsilon must be > 0");
}

std::string AssadiSetCover::name() const {
  return "assadi(alpha=" + std::to_string(config_.alpha) +
         ",eps=" + std::to_string(config_.epsilon) + ")";
}

AssadiGuessResult AssadiSetCover::RunWithGuess(SetStream& stream,
                                               std::size_t opt_guess,
                                               Rng& rng,
                                               const RunContext& context) const {
  const std::size_t n = stream.universe_size();
  const std::size_t m = stream.num_sets();
  const double alpha = static_cast<double>(config_.alpha);
  const std::uint64_t passes_before = stream.passes();

  AssadiGuessResult result;
  SpaceMeter meter;

  // All passes run through the context: sharded when the run binds an
  // engine and the stream's item views survive a whole pass, sequential
  // otherwise — bit-identical either way. Run-lived state (uncovered, the
  // solution ids) comes from the run arena; guess-lived structures
  // bracket the thread's table arena per iteration below.
  EngineContext ctx(stream, context);

  // Retained state: the uncovered-elements bitset U and the solution ids.
  DynamicBitset uncovered =
      DynamicBitset::Full(n, ctx.alloc<DynamicBitset::Word>());
  meter.Charge(uncovered.ByteSize(), kUncoveredCat);
  Solution solution(ctx.alloc<SetId>());

  const auto take = [&](SetId id) {
    solution.chosen.push_back(id);
    meter.SetCategory(SolutionBytes(solution.size()), kSolutionCat);
  };

  // --- Pass 0: one-shot pruning. -----------------------------------------
  // Any set still covering >= n/(ε·õpt) uncovered elements is taken. At
  // most ε·õpt sets can be taken (each removes >= n/(ε·õpt) elements).
  const double prune_threshold =
      static_cast<double>(n) /
      (config_.epsilon * static_cast<double>(std::max<std::size_t>(
                             opt_guess, 1)));
  {
    const TraceSpan phase(ctx.trace(), TraceCategory::kPhase, "prune");
    ctx.ThresholdPass(prune_threshold, uncovered, take);
  }

  // --- α iterations of sample / store / solve / subtract. ----------------
  const double rho = 1.0 / NthRoot(static_cast<double>(n), alpha);
  const double rate = ElementSamplingRate(n, m, std::max<std::size_t>(
                                                    opt_guess, 1),
                                          rho, config_.sampling_boost);
  bool guess_ok = true;
  for (std::size_t iter = 0; iter < config_.alpha && guess_ok; ++iter) {
    if (uncovered.None()) break;

    // Everything this iteration builds — the sample, the projections, the
    // sub-solution — dies with it: bracket the thread's table arena. (Not
    // the scratch arena: TransformPass stages inside scratch and rewinds
    // it, which would free anything the commit callbacks had kept there.)
    const ArenaCheckpoint iteration_checkpoint(ThreadTableArena());
    const auto table = ArenaAllocator<SetId>::Table();
    TraceSpan iteration_span(ctx.trace(), TraceCategory::kPhase, "iteration");
    iteration_span.AddArg("iter", iter);

    // (a) Sample U_smpl from the still-uncovered universe.
    const DynamicBitset sampled =
        SampleElements(uncovered, rate, rng, DynamicBitset::Allocator(table));
    if (sampled.None()) continue;  // nothing sampled; iteration is a no-op
    SubUniverse sub(sampled, table);

    // (b) One pass storing the projections S'_i = S_i ∩ U_smpl. This is
    // the space-dominant structure: m projections of |U_smpl| bits each
    // dense, fewer when the hybrid store sparsifies them. Worker threads
    // project into their own scratch; the commit re-homes each projection
    // into the table-backed system.
    SetSystem projections(sub.size(), SetSystem::kDefaultSparsityThreshold,
                          &ThreadTableArena());
    ArenaVector<SetId> projection_ids(table);
    projection_ids.reserve(m);
    ctx.TransformPass<ProjectedSet>(
        [&](const StreamItem& it) {
          return sub.ProjectAdaptive(it.set,
                                     ArenaAllocator<ElementId>::Scratch());
        },
        [&](const StreamItem& it, ProjectedSet proj) {
          const SetId pid = StoreProjection(projections, std::move(proj));
          meter.Charge(projections.SetBytes(pid) + sizeof(SetId),
                       kProjectionsCat);
          projection_ids.push_back(it.id);
        });

    // (c) Solve the sub-instance *optimally* (the model allows unbounded
    // computation; we keep a node budget and degrade to greedy if hit).
    // The A2 ablation flips use_exact_subsolver off to quantify what the
    // paper's optimal sub-solve buys over plain greedy.
    // The local ids land on the run arena (the exact solver brackets the
    // table arena internally, so its result must live elsewhere).
    ArenaVector<SetId> chosen_local(ctx.alloc<SetId>());
    // Manual span: the sub-solve ends mid-scope (before the subtract
    // pass), so an RAII span would swallow the rest of the iteration.
    const std::int64_t subsolve_start =
        ctx.trace() != nullptr ? TraceRecorder::NowNs() : 0;
    if (config_.use_exact_subsolver) {
      ExactSetCoverOptions exact_options;
      exact_options.max_nodes = config_.exact_node_budget;
      exact_options.size_limit = opt_guess;
      const ExactSetCoverResult sub_result = SolveExactSetCover(
          projections,
          DynamicBitset::Full(sub.size(), DynamicBitset::Allocator(table)),
          exact_options, ctx.alloc<SetId>());
      CountExactSubsolve(sub_result, ctx.counters());
      if (sub_result.feasible) {
        chosen_local = sub_result.solution.chosen;
      } else if (!sub_result.complete) {
        // Node budget exhausted without a within-budget cover: fall back
        // to greedy; if even greedy exceeds the guess budget, the guess
        // fails.
        CountGreedyFallback(ctx.counters());
        const Solution greedy = GreedySetCover(projections, table);
        if (projections.IsFeasibleCover(greedy.chosen) &&
            greedy.chosen.size() <= opt_guess) {
          chosen_local.assign(greedy.chosen.begin(), greedy.chosen.end());
        } else {
          guess_ok = false;
        }
      } else {
        // Proven: no cover of size <= õpt exists, so õpt < opt. Guess
        // fails.
        guess_ok = false;
      }
    } else {
      const Solution greedy = GreedySetCover(projections, table);
      if (projections.IsFeasibleCover(greedy.chosen)) {
        chosen_local.assign(greedy.chosen.begin(), greedy.chosen.end());
      } else {
        guess_ok = false;
      }
    }

    if (ctx.trace() != nullptr) {
      ctx.trace()->Emit(TraceCategory::kPhase, "subsolve", subsolve_start,
                        TraceRecorder::NowNs() - subsolve_start);
    }

    // Stored projections are dropped once the sub-instance is solved.
    meter.Release(meter.CategoryCurrent(kProjectionsCat), kProjectionsCat);

    if (!guess_ok) break;

    ArenaVector<SetId> chosen_global(table);
    chosen_global.reserve(chosen_local.size());
    for (const SetId local : chosen_local) {
      chosen_global.push_back(projection_ids[local]);
      solution.chosen.push_back(projection_ids[local]);
    }
    meter.SetCategory(SolutionBytes(solution.size()), kSolutionCat);
    ctx.RecordTakes(chosen_global.size(), 0);

    // (d) One pass subtracting the chosen sets' *full* contents from U.
    // (The paper stores only projections, so recovering the full contents
    // of OPT' requires this extra pass.)
    ctx.SubtractPass(chosen_global, uncovered);
  }

  result.residual_after_iterations = uncovered.CountSet();

  // --- Optional cleanup pass: guarantee feasibility. ----------------------
  // W.h.p. U is already empty (Lemma 3.11); at laptop scale a small
  // residue can survive, and the paper requires the returned solution to
  // always be feasible.
  if (guess_ok && config_.ensure_feasible && !uncovered.None()) {
    ctx.CoverResiduePass(uncovered, take);
  }

  const double budget =
      (alpha + config_.epsilon) * static_cast<double>(opt_guess);
  result.solution = std::move(solution);
  result.feasible = guess_ok && uncovered.None();
  result.within_budget =
      result.feasible && static_cast<double>(result.solution.size()) <= budget;
  result.passes = stream.passes() - passes_before;
  result.peak_space_bytes = meter.peak();
  result.engine_stats = ctx.stats();
  result.counters = ctx.counters();
  return result;
}

SetCoverRunResult AssadiSetCover::Run(SetStream& stream,
                                      const RunContext& context) {
  Stopwatch timer;
  const std::size_t n = stream.universe_size();
  const std::uint64_t passes_before = stream.passes();
  Rng rng(config_.seed);

  SetCoverRunResult out;
  Bytes peak = 0;
  EnginePassStats totals;

  auto try_guess = [&](std::size_t guess) -> bool {
    TraceSpan guess_span(context.trace, TraceCategory::kPhase, "guess");
    guess_span.AddArg("opt_guess", guess);
    AssadiGuessResult r = RunWithGuess(stream, guess, rng, context);
    peak = std::max(peak, r.peak_space_bytes);
    totals.sets_taken += r.engine_stats.sets_taken;
    totals.elements_covered += r.engine_stats.elements_covered;
    out.stats.counters.MergeFrom(r.counters);
    if (r.feasible && r.within_budget) {
      // Keep the smallest solution across successful guesses.
      if (out.solution.empty() ||
          r.solution.size() < out.solution.size()) {
        out.solution = std::move(r.solution);
      }
      out.feasible = true;
      return true;
    }
    return false;
  };

  if (config_.known_opt > 0) {
    try_guess(config_.known_opt);
  } else {
    // Geometric guesses õpt = ceil((1+ε)^j), smallest first; stop at the
    // first guess that succeeds within budget (larger guesses only yield
    // larger budgets).
    std::size_t prev = 0;
    for (double g = 1.0; static_cast<std::size_t>(g) <= n;
         g *= (1.0 + config_.epsilon)) {
      const std::size_t guess = static_cast<std::size_t>(std::ceil(g));
      if (guess == prev) continue;
      prev = guess;
      if (try_guess(guess)) break;
    }
  }

  out.stats.passes = stream.passes() - passes_before;
  out.stats.peak_space_bytes = peak;
  out.stats.items_seen = out.stats.passes * stream.num_sets();
  out.stats.sets_taken = totals.sets_taken;
  out.stats.elements_covered = totals.elements_covered;
  out.stats.wall_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace streamsc
