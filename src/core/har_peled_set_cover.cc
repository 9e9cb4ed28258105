#include "core/har_peled_set_cover.h"

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

// Interned metering categories (hot path: array index per Charge).
const SpaceCategory kUncoveredCat("uncovered");
const SpaceCategory kSolutionCat("solution");
const SpaceCategory kProjectionsCat("projections");

}  // namespace

HarPeledSetCover::HarPeledSetCover(HarPeledConfig config) : config_(config) {
  STREAMSC_CHECK(config_.alpha >= 1, "HarPeledConfig: alpha must be >= 1");
}

std::string HarPeledSetCover::name() const {
  return "har-peled(alpha=" + std::to_string(config_.alpha) + ")";
}

SetCoverRunResult HarPeledSetCover::RunWithGuess(
    SetStream& stream, std::size_t opt_guess, Rng& rng,
    const RunContext& context) const {
  const std::size_t n = stream.universe_size();
  const std::size_t m = stream.num_sets();
  const std::uint64_t passes_before = stream.passes();
  Stopwatch timer;

  SetCoverRunResult result;
  SpaceMeter meter;
  EngineContext ctx(stream, context);

  // Run-lived state on the run arena; guess-lived structures bracket the
  // thread's table arena per iteration (see the Assadi implementation for
  // the full rationale).
  DynamicBitset uncovered =
      DynamicBitset::Full(n, ctx.alloc<DynamicBitset::Word>());
  meter.Charge(uncovered.ByteSize(), kUncoveredCat);
  Solution solution(ctx.alloc<SetId>());

  const auto take = [&](SetId id) {
    solution.chosen.push_back(id);
    meter.SetCategory(solution.size() * sizeof(SetId), kSolutionCat);
  };

  // ceil(α/2) iterations, each reducing |U| by ~n^{2/α} (the c = 2
  // exponent in the original's n^{Θ(1/α)} space).
  const std::size_t iterations = (config_.alpha + 1) / 2;
  const double rho =
      1.0 / std::pow(static_cast<double>(n),
                     2.0 / static_cast<double>(config_.alpha));

  bool guess_ok = true;
  for (std::size_t iter = 0; iter < iterations && guess_ok; ++iter) {
    if (uncovered.None()) break;
    TraceSpan iteration_span(ctx.trace(), TraceCategory::kPhase, "iteration");
    iteration_span.AddArg("iter", iter);

    // 1. Iterative pruning pass (per-iteration, threshold |U|/(2·õpt)).
    const double threshold =
        static_cast<double>(uncovered.CountSet()) /
        (2.0 * static_cast<double>(std::max<std::size_t>(opt_guess, 1)));
    {
      const TraceSpan phase(ctx.trace(), TraceCategory::kPhase, "prune");
      ctx.ThresholdPass(threshold, uncovered, take);
    }
    if (uncovered.None()) break;

    // 2. Sampling pass with the looser rate (ρ = n^{-2/α}). The sample,
    // projections, and sub-solution are guess-lived: table-arena bracket.
    const ArenaCheckpoint iteration_checkpoint(ThreadTableArena());
    const auto table = ArenaAllocator<SetId>::Table();
    const double rate = ElementSamplingRate(
        n, m, std::max<std::size_t>(opt_guess, 1), rho,
        config_.sampling_boost);
    const DynamicBitset sampled =
        SampleElements(uncovered, rate, rng, DynamicBitset::Allocator(table));
    if (sampled.None()) continue;
    SubUniverse sub(sampled, table);

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

    // 3. Optimal sub-solve + subtraction pass. (Manual span: the
    // sub-solve ends mid-scope, before the subtract pass.)
    const std::int64_t subsolve_start =
        ctx.trace() != nullptr ? TraceRecorder::NowNs() : 0;
    ExactSetCoverOptions exact_options;
    exact_options.max_nodes = config_.exact_node_budget;
    exact_options.size_limit = opt_guess;
    const ExactSetCoverResult sub_result = SolveExactSetCover(
        projections,
        DynamicBitset::Full(sub.size(), DynamicBitset::Allocator(table)),
        exact_options, ctx.alloc<SetId>());
    CountExactSubsolve(sub_result, ctx.counters());
    ArenaVector<SetId> chosen_local(ctx.alloc<SetId>());
    if (sub_result.feasible) {
      chosen_local = sub_result.solution.chosen;
    } else if (!sub_result.complete) {
      CountGreedyFallback(ctx.counters());
      const Solution greedy = GreedySetCover(projections, table);
      if (projections.IsFeasibleCover(greedy.chosen) &&
          greedy.chosen.size() <= opt_guess) {
        chosen_local.assign(greedy.chosen.begin(), greedy.chosen.end());
      } else {
        guess_ok = false;
      }
    } else {
      guess_ok = false;
    }
    if (ctx.trace() != nullptr) {
      ctx.trace()->Emit(TraceCategory::kPhase, "subsolve", subsolve_start,
                        TraceRecorder::NowNs() - subsolve_start);
    }
    meter.Release(meter.CategoryCurrent(kProjectionsCat), kProjectionsCat);
    if (!guess_ok) break;

    ArenaVector<SetId> chosen_global(table);
    chosen_global.reserve(chosen_local.size());
    for (const SetId local : chosen_local) {
      chosen_global.push_back(projection_ids[local]);
      solution.chosen.push_back(projection_ids[local]);
    }
    meter.SetCategory(solution.size() * sizeof(SetId), kSolutionCat);
    ctx.RecordTakes(chosen_global.size(), 0);

    ctx.SubtractPass(chosen_global, uncovered);
  }

  // Cleanup pass for feasibility (as in the Assadi implementation).
  if (guess_ok && !uncovered.None()) {
    ctx.CoverResiduePass(uncovered, take);
  }

  result.solution = std::move(solution);
  result.feasible = guess_ok && uncovered.None();
  result.stats.passes = stream.passes() - passes_before;
  result.stats.peak_space_bytes = meter.peak();
  result.stats.items_seen = result.stats.passes * m;
  result.stats.sets_taken = ctx.stats().sets_taken;
  result.stats.elements_covered = ctx.stats().elements_covered;
  result.stats.wall_seconds = timer.ElapsedSeconds();
  result.stats.counters = ctx.counters();
  return result;
}

SetCoverRunResult HarPeledSetCover::Run(SetStream& stream,
                                        const RunContext& context) {
  Stopwatch timer;
  Rng rng(config_.seed);
  const std::uint64_t passes_before = stream.passes();
  SetCoverRunResult out;
  Bytes peak = 0;
  EnginePassStats totals;

  auto try_guess = [&](std::size_t guess) {
    TraceSpan guess_span(context.trace, TraceCategory::kPhase, "guess");
    guess_span.AddArg("opt_guess", guess);
    SetCoverRunResult r = RunWithGuess(stream, guess, rng, context);
    peak = std::max(peak, r.stats.peak_space_bytes);
    totals.sets_taken += r.stats.sets_taken;
    totals.elements_covered += r.stats.elements_covered;
    out.stats.counters.MergeFrom(r.stats.counters);
    const double budget = (static_cast<double>(config_.alpha) + 1.0) *
                          static_cast<double>(guess);
    if (r.feasible && static_cast<double>(r.solution.size()) <= budget) {
      if (out.solution.empty() || r.solution.size() < out.solution.size()) {
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
    std::size_t prev = 0;
    for (double g = 1.0;
         static_cast<std::size_t>(g) <= stream.universe_size(); g *= 2.0) {
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
