#include "core/pair_finder.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "stream/engine_context.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/space_meter.h"

namespace streamsc {
namespace {

// Interned metering categories (hot path: array index per Charge).
const SpaceCategory kProjectionsCat("projections");
const SpaceCategory kCandidatesCat("candidates");

}  // namespace

ExactPairFinder::ExactPairFinder(PairFinderConfig config) : config_(config) {
  STREAMSC_CHECK(config_.passes >= 1,
                 "PairFinderConfig: at least one pass/chunk is required");
}

std::string ExactPairFinder::name() const {
  return "exact-pair-finder(p=" + std::to_string(config_.passes) + ")";
}

PairFinderResult ExactPairFinder::Run(SetStream& stream,
                                      const RunContext& context) const {
  const std::size_t n = stream.universe_size();
  const std::size_t m = stream.num_sets();
  const std::size_t p = std::min(config_.passes, std::max<std::size_t>(n, 1));

  PairFinderResult result;
  EngineContext ctx(stream, context);
  SpaceMeter& meter = ctx.meter();
  result.solution = Solution(ctx.alloc<SetId>());

  // Candidate pairs (i <= j) surviving all chunks seen so far. Seeded from
  // the first chunk instead of materializing all m² pairs. Run-lived:
  // run arena.
  using Pair = std::pair<SetId, SetId>;
  ArenaVector<Pair> candidates{ctx.alloc<Pair>()};
  bool seeded = false;
  bool aborted = false;

  for (std::size_t chunk = 0; chunk < p && !aborted; ++chunk) {
    // Contiguous chunk [lo, hi) of the universe.
    const std::size_t lo = chunk * n / p;
    const std::size_t hi = (chunk + 1) * n / p;
    const std::size_t width = hi - lo;
    if (width == 0) continue;

    // One pass: store all projections onto this chunk (m·n/p bits). The
    // per-item slice extraction is pure, so the pass shards when the
    // stream can buffer it. The stored projections are chunk-lived: they
    // bracket the thread's table arena. Workers slice into their own
    // scratch; the commit *copy*-assigns, which re-homes each slice into
    // the table-backed row (copy assignment keeps the destination's
    // allocator; a move would smuggle the scratch binding in and dangle
    // at the pass-end scratch rewind).
    const ArenaCheckpoint chunk_checkpoint(ThreadTableArena());
    const auto table = ArenaAllocator<SetId>::Table();
    ArenaVector<DynamicBitset> proj{ArenaAllocator<DynamicBitset>::Table()};
    proj.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      proj.emplace_back(width, DynamicBitset::Allocator(table));
    }
    ArenaVector<SetId> ids(m, kInvalidSetId, table);
    std::size_t pos = 0;
    ctx.TransformPass<DynamicBitset>(
        [&](const StreamItem& it) {
          DynamicBitset slice(width, DynamicBitset::Allocator::Scratch());
          for (std::size_t e = lo; e < hi; ++e) {
            if (it.set.Test(e)) slice.Set(e - lo);
          }
          return slice;
        },
        [&](const StreamItem& it, const DynamicBitset& slice) {
          meter.Charge(slice.ByteSize() + sizeof(SetId), kProjectionsCat);
          proj[pos] = slice;
          ids[pos] = it.id;
          ++pos;
        });

    // Runs on worker threads inside the row scans: the union is staged in
    // the *calling* thread's scratch and unwound immediately.
    auto pair_covers_chunk = [&](std::size_t i, std::size_t j) {
      MonotonicArena& scratch = ThreadScratchArena();
      const ArenaCheckpoint checkpoint(scratch);
      DynamicBitset u(proj[i], DynamicBitset::Allocator(&scratch));
      u |= proj[j];
      return u.All();
    };

    if (!seeded) {
      // Seeding: rows are scanned in parallel blocks (each row's hits are
      // pure facts about the projections), then appended in row order so
      // the candidate list — and the abort point when the cap trips — is
      // exactly the sequential one.
      TraceSpan phase(ctx.trace(), TraceCategory::kPhase, "seed");
      constexpr std::size_t kRowBlock = 64;
      for (std::size_t row0 = 0; row0 < m && !aborted; row0 += kRowBlock) {
        const std::size_t rows = std::min(kRowBlock, m - row0);
        // Each row's hit list is Scratch-*bound*: the binding resolves the
        // arena of whichever thread grows the vector, so every worker
        // appends into its own scratch (reset at its next job pickup —
        // after this block has consumed the rows below).
        MonotonicArena& scratch = ThreadScratchArena();
        const ArenaCheckpoint block_checkpoint(scratch);
        ArenaVector<ArenaVector<Pair>> found{
            ArenaAllocator<ArenaVector<Pair>>(&scratch)};
        found.reserve(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          found.emplace_back(ArenaAllocator<Pair>::Scratch());
        }
        ctx.ParallelFor(rows, [&](std::size_t r) {
          const std::size_t i = row0 + r;
          for (std::size_t j = i; j < m; ++j) {
            if (pair_covers_chunk(i, j)) {
              found[r].emplace_back(static_cast<SetId>(i),
                                    static_cast<SetId>(j));
            }
          }
        });
        for (std::size_t r = 0; r < rows && !aborted; ++r) {
          for (const auto& pair : found[r]) {
            candidates.push_back(pair);
            if (candidates.size() > config_.max_candidates) {
              aborted = true;
              break;
            }
          }
        }
      }
      seeded = true;
      result.candidates_after_first_pass = candidates.size();
      phase.AddArg("candidates", candidates.size());
    } else {
      // Survivor filter: per-candidate verdicts in parallel, compaction
      // in order. Verdicts and the compacted list stage in the
      // orchestrator's scratch (workers only write verdict bytes).
      const TraceSpan phase(ctx.trace(), TraceCategory::kPhase, "filter");
      MonotonicArena& scratch = ThreadScratchArena();
      const ArenaCheckpoint filter_checkpoint(scratch);
      ArenaVector<char> keep(candidates.size(), 0,
                             ArenaAllocator<char>(&scratch));
      ctx.ParallelFor(candidates.size(), [&](std::size_t c) {
        keep[c] =
            pair_covers_chunk(candidates[c].first, candidates[c].second) ? 1
                                                                         : 0;
      });
      ArenaVector<Pair> survivors{ArenaAllocator<Pair>(&scratch)};
      survivors.reserve(candidates.size());
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (keep[c]) survivors.push_back(candidates[c]);
      }
      candidates.assign(survivors.begin(), survivors.end());
    }
    meter.SetCategory(candidates.size() * sizeof(Pair), kCandidatesCat);

    // Projections are discarded between passes — that is the point of the
    // n/p chunking.
    meter.Release(meter.CategoryCurrent(kProjectionsCat), kProjectionsCat);

    if (!aborted && !candidates.empty()) {
      // Prefer a singleton candidate (i, i) — a 1-set cover beats a pair.
      // NOTE: candidates store stream *positions*; ids[] maps position ->
      // SetId for the most recent pass. For kRandomEachPass streams the
      // mapping is not stable; Run() requires a pass-stable order.
      Pair pick = candidates.front();
      for (const auto& cand : candidates) {
        if (cand.first == cand.second) {
          pick = cand;
          break;
        }
      }
      result.solution.chosen = {ids[pick.first], ids[pick.second]};
    }
  }

  result.found = !aborted && !candidates.empty();
  if (!result.found) result.solution.chosen.clear();
  if (result.found && result.solution.chosen.size() == 2 &&
      result.solution.chosen[0] == result.solution.chosen[1]) {
    result.solution.chosen.pop_back();  // single-set cover
  }
  result.stats = ctx.Stats();
  return result;
}

}  // namespace streamsc
