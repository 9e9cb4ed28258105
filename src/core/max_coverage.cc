#include "core/max_coverage.h"

#include <algorithm>
#include <cmath>

#include "core/sampling.h"
#include "obs/trace.h"
#include "offline/exact_max_coverage.h"
#include "offline/greedy.h"
#include "stream/engine_context.h"
#include "util/check.h"
#include "util/math.h"
#include "util/space_meter.h"

namespace streamsc {
namespace {

// Interned metering categories (hot path: array index per Charge).
const SpaceCategory kSampleUniverseCat("sample-universe");
const SpaceCategory kCandidatesCat("candidates");

}  // namespace

ElementSamplingMaxCoverage::ElementSamplingMaxCoverage(
    ElementSamplingMcConfig config)
    : config_(config) {
  STREAMSC_CHECK(config_.epsilon > 0.0 && config_.epsilon < 1.0,
                 "ElementSamplingMcConfig: epsilon must lie in (0, 1)");
}

std::string ElementSamplingMaxCoverage::name() const {
  return "element-sampling-mc(eps=" + std::to_string(config_.epsilon) + ")";
}

double ElementSamplingMaxCoverage::SampleRate(std::size_t n, std::size_t m,
                                              std::size_t k) const {
  // Target sample size Θ(k·log m / ε²); rate = target / n, clamped.
  const double target = config_.sampling_boost * 12.0 *
                        static_cast<double>(k) *
                        SafeLog(static_cast<double>(m)) /
                        (config_.epsilon * config_.epsilon);
  return std::clamp(target / static_cast<double>(n), 1e-12, 1.0);
}

MaxCoverageRunResult ElementSamplingMaxCoverage::Run(
    SetStream& stream, std::size_t k, const RunContext& context) {
  const std::size_t n = stream.universe_size();
  const std::size_t m = stream.num_sets();
  Rng rng(config_.seed);

  MaxCoverageRunResult result;
  EngineContext ctx(stream, context);
  SpaceMeter& meter = ctx.meter();

  // Everything here is run-lived (one sample, one projection store, one
  // solve): it all goes straight on the run arena.
  // Sample the universe once, up front (public coins in the paper's
  // communication view).
  const double rate = SampleRate(n, m, k);
  const DynamicBitset sampled =
      rng.BernoulliSubset(n, rate, ctx.alloc<DynamicBitset::Word>());
  SubUniverse sub(sampled, ctx.alloc<ElementId>());
  meter.Charge(CeilDiv(sub.size(), 8), kSampleUniverseCat);

  // One pass: store every set's projection onto the sample, in the
  // run-arena-backed system.
  const StoredProjections projections =
      StoreProjectionPass(ctx, sub, context.arena, ctx.alloc<SetId>());

  // Offline solve on the sampled instance. The solve's internals bracket
  // the thread's table arena; its result lands on the run arena.
  Solution local(ctx.alloc<SetId>());
  {
    const TraceSpan phase(ctx.trace(), TraceCategory::kPhase,
                          "offline_solve");
    const ArenaCheckpoint solve_checkpoint(ThreadTableArena());
    const auto table = ArenaAllocator<SetId>::Table();
    if (k <= config_.exact_k_limit) {
      ExactMaxCoverageOptions options;
      options.max_nodes = config_.exact_node_budget;
      ExactMaxCoverageResult exact = SolveExactMaxCoverage(
          projections.sets,
          DynamicBitset::Full(sub.size(), DynamicBitset::Allocator(table)), k,
          options, ctx.alloc<SetId>());
      local = std::move(exact.solution);
    } else {
      const Solution greedy = GreedyMaxCoverage(projections.sets, k, table);
      local.chosen.assign(greedy.chosen.begin(), greedy.chosen.end());
    }
  }

  Solution lifted(ctx.alloc<SetId>());
  lifted.chosen.reserve(local.chosen.size());
  for (const SetId id : local.chosen) {
    lifted.chosen.push_back(projections.ids[id]);
  }
  result.solution = std::move(lifted);

  // One more pass to compute the *true* coverage of the returned sets
  // (verification; not charged against the sketch space).
  DynamicBitset covered(n, ctx.alloc<DynamicBitset::Word>());
  {
    const TraceSpan phase(ctx.trace(), TraceCategory::kPhase, "verify");
    ctx.UnionPass(result.solution.chosen, covered);
  }
  result.coverage = covered.CountSet();
  ctx.RecordTakes(result.solution.size(), result.coverage);

  result.stats = ctx.Stats();
  return result;
}

SieveMaxCoverage::SieveMaxCoverage(SieveMcConfig config) : config_(config) {
  STREAMSC_CHECK(config_.epsilon > 0.0 && config_.epsilon < 1.0,
                 "SieveMcConfig: epsilon must lie in (0, 1) — epsilon 0 "
                 "freezes the (1+eps)^j guess grid and loops forever");
}

std::string SieveMaxCoverage::name() const {
  return "sieve-mc(eps=" + std::to_string(config_.epsilon) + ")";
}

MaxCoverageRunResult SieveMaxCoverage::Run(SetStream& stream, std::size_t k,
                                           const RunContext& context) {
  const std::size_t n = stream.universe_size();

  MaxCoverageRunResult result;
  EngineContext ctx(stream, context);

  // One candidate solution per OPT guess v on the grid (1+ε)^j in
  // [1, k·n]. Each candidate retains its covered-elements bitset. All
  // lanes live on the run arena and are fully sized here on the
  // orchestrator thread: each chosen list reserves its k-set capacity up
  // front, so worker-thread pushes during the scan never allocate (the
  // run arena is not synchronized — workers may only write, not grow).
  struct Candidate {
    double guess;
    DynamicBitset covered;
    ArenaVector<SetId> chosen;
  };
  ArenaVector<Candidate> candidates{ctx.alloc<Candidate>()};
  for (double v = 1.0; v <= static_cast<double>(k) * static_cast<double>(n);
       v *= (1.0 + config_.epsilon)) {
    candidates.push_back(
        Candidate{v, DynamicBitset(n, ctx.alloc<DynamicBitset::Word>()),
                  ArenaVector<SetId>(ctx.alloc<SetId>())});
    candidates.back().chosen.reserve(k);
    ctx.meter().Charge(candidates.back().covered.ByteSize(),
                       kCandidatesCat);
  }

  // Every guess is an independent lane: its take decisions depend only on
  // its own covered/chosen state and the item sequence, so the lanes can
  // be scanned in parallel without changing any of them.
  const std::int64_t sieve_start =
      ctx.trace() != nullptr ? TraceRecorder::NowNs() : 0;
  ctx.IndependentScanPass(
      candidates.size(), [&](std::size_t lane, const StreamItem& item) {
        Candidate& cand = candidates[lane];
        if (cand.chosen.size() >= k) return;
        const Count gain = item.set.CountAndNot(cand.covered);
        const double needed =
            (cand.guess / 2.0 -
             static_cast<double>(cand.covered.CountSet())) /
            static_cast<double>(k - cand.chosen.size());
        if (static_cast<double>(gain) >= needed && gain > 0) {
          cand.chosen.push_back(item.id);
          item.set.OrInto(cand.covered);
        }
      });

  if (ctx.trace() != nullptr) {
    const TraceArg args[] = {{"lanes", candidates.size()}};
    ctx.trace()->Emit(TraceCategory::kPhase, "sieve_scan", sieve_start,
                      TraceRecorder::NowNs() - sieve_start, args, 1);
  }

  // Return the best candidate by actual (full-universe) coverage; counters
  // aggregate over every lane (deterministic for any thread count, unlike
  // anything scheduling-dependent).
  const Candidate* best = nullptr;
  Count best_coverage = 0;
  std::uint64_t lane_takes = 0;
  std::uint64_t lane_covered = 0;
  for (const Candidate& cand : candidates) {
    const Count cov = cand.covered.CountSet();
    lane_takes += cand.chosen.size();
    lane_covered += cov;
    if (cov > best_coverage || best == nullptr) {
      best_coverage = cov;
      best = &cand;
    }
  }
  ctx.RecordTakes(lane_takes, lane_covered);
  if (best != nullptr) {
    Solution solution(ctx.alloc<SetId>());
    solution.chosen.assign(best->chosen.begin(), best->chosen.end());
    result.solution = std::move(solution);
    result.coverage = best_coverage;
  }

  result.stats = ctx.Stats();
  return result;
}

}  // namespace streamsc
