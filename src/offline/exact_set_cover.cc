#include "offline/exact_set_cover.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <utility>

#include "offline/greedy.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/math.h"

namespace streamsc {
namespace {

/// 128-bit content key for a bitset (two independent hash chains over its
/// words), used by the transposition table. Collision probability over
/// millions of entries is negligible (~2^-90).
struct StateKey {
  std::uint64_t h1;
  std::uint64_t h2;
  bool operator==(const StateKey& o) const { return h1 == o.h1 && h2 == o.h2; }
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const {
    return static_cast<std::size_t>(k.h1 ^ (k.h2 * 0x9e3779b97f4a7c15ull));
  }
};

// splitmix64's and murmur3's 64-bit finalizers: two unrelated bijective
// mixers, one per half of the key.
std::uint64_t MixA(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t MixB(std::uint64_t x) {
  x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdull;
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

// One mixing step per backing word: n/64 steps per node.
StateKey KeyOf(const DynamicBitset& bs) {
  std::uint64_t h1 = 0x243f6a8885a308d3ull;
  std::uint64_t h2 = 0x13198a2e03707344ull;
  const DynamicBitset::Word* words = bs.WordData();
  for (std::size_t w = 0; w < bs.WordCount(); ++w) {
    h1 = MixA(h1 ^ words[w]);
    h2 = MixB(h2 + words[w]);
  }
  return {h1, h2};
}

/// Shared search state for the branch-and-bound recursion. Call-scoped
/// (outlives the interleaved LIFO rewinds of the scratch arena), so its
/// containers live on the thread's table arena — the solve entry point
/// brackets it with a checkpoint.
struct SearchState {
  ExactSetCoverOptions options;
  // The system's sets, resolved to views once per call.
  ArenaVector<SetView> sets{ArenaAllocator<SetView>::Table()};
  // degree[e] = number of sets containing element e. Fixed for the whole
  // search: branching never changes the sets, only the uncovered region.
  ArenaVector<std::uint32_t> degree{ArenaAllocator<std::uint32_t>::Table()};
  ArenaVector<SetId> current{ArenaAllocator<SetId>::Table()};
  ArenaVector<SetId> best{ArenaAllocator<SetId>::Table()};
  bool best_feasible = false;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  // Transposition table: uncovered-state -> smallest depth at which it was
  // fully explored. Re-visiting at the same or greater depth is redundant.
  using SeenAlloc = ArenaAllocator<std::pair<const StateKey, std::size_t>>;
  std::unordered_map<StateKey, std::size_t, StateKeyHash,
                     std::equal_to<StateKey>, SeenAlloc>
      seen{SeenAlloc::Table()};
};

// Returns an uncovered element with (approximately) the fewest covering
// sets: the first one of least degree among at most the first 64
// uncovered elements. Min-degree is a branching heuristic, so an
// approximate argmin is fine; degrees come from the call's static table,
// so each scanned element costs one load.
ElementId PickBranchElement(const SearchState& state,
                            const DynamicBitset& uncovered,
                            std::size_t& degree_out) {
  ElementId best_e = kInvalidElementId;
  std::size_t best_degree = ~std::size_t{0};
  std::size_t scanned = 0;
  for (ElementId e = uncovered.FindFirst();
       e != kInvalidElementId && scanned < 64 && best_degree > 1;
       e = uncovered.FindNext(e), ++scanned) {
    const std::size_t degree = state.degree[e];
    if (degree < best_degree) {
      best_degree = degree;
      best_e = e;
    }
  }
  degree_out = (best_e == kInvalidElementId) ? 0 : best_degree;
  return best_e;
}

void Search(SearchState& state, const DynamicBitset& uncovered) {
  if (state.budget_exhausted) return;
  if (++state.nodes > state.options.max_nodes) {
    state.budget_exhausted = true;
    return;
  }
  if (uncovered.None()) {
    if (!state.best_feasible || state.current.size() < state.best.size()) {
      state.best = state.current;
      state.best_feasible = true;
    }
    return;
  }

  const std::size_t budget =
      std::min(state.options.size_limit,
               state.best_feasible ? state.best.size() - 1 : ~std::size_t{0});
  if (state.current.size() >= budget) return;

  // Transposition pruning: if this uncovered state was already explored at
  // a depth <= ours, nothing new can be found here.
  const StateKey key = KeyOf(uncovered);
  auto [it, inserted] = state.seen.try_emplace(key, state.current.size());
  if (!inserted) {
    if (it->second <= state.current.size()) return;
    it->second = state.current.size();
  }

  // Per-node temporaries stage LIFO in the scratch arena: the gain and
  // candidate lists under a node checkpoint, each branch bitset under a
  // per-child checkpoint so sibling subtrees reuse the same bytes.
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint node_checkpoint(scratch);
  const std::size_t m = state.sets.size();

  // Per-node counting lower bound using the best achievable single-set
  // gain against the *current* uncovered region. The gains are kept for
  // the candidate list below.
  const Count remaining = uncovered.CountSet();
  ArenaVector<Count> gains{ArenaAllocator<Count>(&scratch)};
  gains.resize(m);
  Count max_gain = 0;
  for (SetId i = 0; i < m; ++i) {
    gains[i] = state.sets[i].CountAnd(uncovered);
    max_gain = std::max(max_gain, gains[i]);
  }
  if (max_gain == 0) return;  // infeasible branch
  const std::size_t lb =
      static_cast<std::size_t>(CeilDiv(remaining, max_gain));
  if (state.current.size() + lb > budget) return;

  std::size_t degree = 0;
  const ElementId e = PickBranchElement(state, uncovered, degree);
  if (degree == 0) return;  // e is coverable by no set: infeasible branch

  // Candidate sets containing e, largest marginal gain first. Built in
  // increasing set id order, so the (unstable) sort sees the same
  // sequence on every run and the search order is reproducible.
  using Candidate = std::pair<Count, SetId>;
  ArenaVector<Candidate> candidates{ArenaAllocator<Candidate>(&scratch)};
  candidates.reserve(degree);
  for (SetId i = 0; i < m; ++i) {
    if (state.sets[i].Test(e)) candidates.emplace_back(gains[i], i);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });

  for (const auto& [gain, id] : candidates) {
    (void)gain;
    if (state.budget_exhausted) return;
    state.current.push_back(id);
    {
      const ArenaCheckpoint child_checkpoint(scratch);
      DynamicBitset next(uncovered, DynamicBitset::Allocator(&scratch));
      state.sets[id].AndNotInto(next);
      Search(state, next);
    }
    state.current.pop_back();
  }
}

}  // namespace

ExactSetCoverResult SolveExactSetCover(const SetSystem& system,
                                       const DynamicBitset& universe,
                                       const ExactSetCoverOptions& options,
                                       ArenaAllocator<SetId> result_alloc) {
  STREAMSC_DCHECK(universe.size() == system.universe_size());
  ExactSetCoverResult result;
  result.solution = Solution(result_alloc);
  if (universe.None()) {
    result.feasible = true;
    result.complete = true;
    result.proven_optimal = true;
    return result;
  }

  // Bracket the call-scoped search state (incumbent vectors, transposition
  // table) on the table arena. The checkpoint outlives the inner scope, so
  // the containers are destroyed (deallocate is a no-op) before the bytes
  // are reclaimed; the result was copied into result_alloc by then.
  const ArenaCheckpoint table_checkpoint(ThreadTableArena());
  {
    SearchState state;
    state.options = options;
    state.sets.reserve(system.num_sets());
    state.degree.assign(system.universe_size(), 0);
    for (SetId i = 0; i < system.num_sets(); ++i) {
      const SetView set = system.set(i);
      state.sets.push_back(set);
      set.ForEach([&state](ElementId e) { ++state.degree[e]; });
    }

    // Greedy warm start gives the incumbent upper bound (if feasible and
    // within the requested size limit). The warm-start solution is
    // call-scoped too, so it lands on the table arena alongside the state.
    const Solution greedy =
        GreedySetCover(system, universe, ArenaAllocator<SetId>::Table());
    {
      MonotonicArena& scratch = ThreadScratchArena();
      const ArenaCheckpoint checkpoint(scratch);
      if (universe.IsSubsetOf(system.UnionOf(
              greedy.chosen, DynamicBitset::Allocator(&scratch))) &&
          greedy.chosen.size() <= options.size_limit) {
        state.best.assign(greedy.chosen.begin(), greedy.chosen.end());
        state.best_feasible = true;
      }
    }

    Search(state, universe);

    result.solution.chosen.assign(state.best.begin(), state.best.end());
    result.feasible = state.best_feasible;
    result.complete = !state.budget_exhausted;
    result.proven_optimal = state.best_feasible && result.complete;
    result.nodes = state.nodes;
  }
  return result;
}

ExactSetCoverResult SolveExactSetCover(const SetSystem& system,
                                       const ExactSetCoverOptions& options,
                                       ArenaAllocator<SetId> result_alloc) {
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  return SolveExactSetCover(
      system,
      DynamicBitset::Full(system.universe_size(),
                          DynamicBitset::Allocator(&scratch)),
      options, result_alloc);
}

}  // namespace streamsc
