#include "offline/exact_set_cover.h"

#include <algorithm>
#include <utility>

#include "offline/greedy.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/math.h"

namespace streamsc {
namespace {

/// Shared search state for the branch-and-bound recursion. Call-scoped
/// (outlives the interleaved LIFO rewinds of the scratch arena), so its
/// containers live on the thread's table arena — the solve entry point
/// brackets it with a checkpoint.
struct SearchState {
  ExactSetCoverOptions options;
  // Every set's exact gain against the call's universe, counted once
  // before the set-up (they refute the root or seed its gains).
  const Count* root_gains = nullptr;
  // The system's sets, resolved to views once per call.
  ArenaVector<SetView> sets{ArenaAllocator<SetView>::Table()};
  // The sets containing element e are covering[first[e] .. first[e + 1]),
  // in increasing id order. Fixed for the whole search: branching never
  // changes the sets, only the uncovered region.
  ArenaVector<std::uint32_t> first{ArenaAllocator<std::uint32_t>::Table()};
  ArenaVector<SetId> covering{ArenaAllocator<SetId>::Table()};
  ArenaVector<SetId> current{ArenaAllocator<SetId>::Table()};
  ArenaVector<SetId> best{ArenaAllocator<SetId>::Table()};
  bool best_feasible = false;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
};

// Returns an uncovered element with (approximately) the fewest live
// covering sets: the first one of least live degree among at most the
// first 64 uncovered elements. A covering set is live while its entry in
// the node's \p gains is nonzero; excluded sets read 0 there. Min-degree
// is a branching heuristic, so an approximate argmin is fine; an element's
// count walks its incidence list and stops once it cannot beat the best.
ElementId PickBranchElement(const SearchState& state,
                            const DynamicBitset& uncovered, const Count* gains,
                            std::size_t& degree_out) {
  ElementId best_e = kInvalidElementId;
  std::size_t best_degree = ~std::size_t{0};
  std::size_t scanned = 0;
  for (ElementId e = uncovered.FindFirst();
       e != kInvalidElementId && scanned < 64 && best_degree > 1;
       e = uncovered.FindNext(e), ++scanned) {
    std::size_t degree = 0;
    for (std::uint32_t k = state.first[e];
         k < state.first[e + 1] && degree < best_degree; ++k) {
      degree += gains[state.covering[k]] != 0 ? 1 : 0;
    }
    if (degree < best_degree) {
      best_degree = degree;
      best_e = e;
    }
  }
  degree_out = (best_e == kInvalidElementId) ? 0 : best_degree;
  return best_e;
}

// Expands the node whose uncovered region is \p uncovered. \p bounds is
// null at the root, whose gains are state.root_gains; below it, it is the
// parent's gain array, whose entries bound this node's gains from above: a
// child's uncovered region is a subset of its parent's, so no set's gain
// ever grows on the way down. A set that contains an uncovered element
// gains at least 1, so an entry of 0 there marks it as excluded from this
// subtree: an earlier sibling's subtree, here or at an ancestor, already
// took it. A node counts a gain exactly only where the answer can change
// what it or its children do, so every prune decision, candidate gain and
// candidate order is the one a full sweep of the live sets would give.
void Search(SearchState& state, const DynamicBitset& uncovered,
            const Count* bounds) {
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

  const std::size_t depth = state.current.size();
  const std::size_t budget =
      std::min(state.options.size_limit,
               state.best_feasible ? state.best.size() - 1 : ~std::size_t{0});
  if (depth >= budget) return;

  // Per-node temporaries stage LIFO in the scratch arena: the gain and
  // candidate lists under a node checkpoint, each branch bitset under a
  // per-child checkpoint so sibling subtrees reuse the same bytes.
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint node_checkpoint(scratch);
  const std::size_t m = state.sets.size();

  // Counting lower bound: covering `remaining` elements with sets of gain
  // at most max_gain takes ceil(remaining / max_gain) more sets, which
  // must fit in the slack budget - depth >= 1. That holds exactly when
  // max_gain >= cut = ceil(remaining / slack), so the node lives iff some
  // set's gain reaches `cut`. Clamping the slack to `remaining` keeps an
  // unbounded budget from overflowing and leaves cut = 1 (some set must
  // gain anything at all).
  const Count remaining = uncovered.CountSet();
  const Count slack = std::min<Count>(budget - depth, remaining);
  const Count cut = CeilDiv(remaining, slack);

  // gains[i] is set i's exact gain against `uncovered` where it was
  // counted, its inherited upper bound elsewhere, and 0 while it is
  // excluded (an excluded set never reaches `cut`); the children read
  // it as their bounds. The root's gains are all exact. Below it, only
  // sets whose bound reaches `cut` are counted, up to the first that does:
  // the counted sets are those below scan_end whose bound reached cut.
  ArenaVector<Count> gains{ArenaAllocator<Count>(&scratch)};
  bool alive = false;
  std::size_t scan_end = m;
  if (bounds == nullptr) {
    gains.assign(state.root_gains, state.root_gains + m);
    for (SetId i = 0; i < m && !alive; ++i) alive = gains[i] >= cut;
  } else {
    gains.assign(bounds, bounds + m);
    for (SetId i = 0; i < m && !alive; ++i) {
      if (bounds[i] < cut) continue;
      gains[i] = state.sets[i].CountAnd(uncovered);
      alive = gains[i] >= cut;
      scan_end = i + 1;
    }
  }
  if (!alive) return;
  const auto counted = [&](SetId i) {
    return bounds == nullptr || (i < scan_end && bounds[i] >= cut);
  };

  std::size_t degree = 0;
  const ElementId e =
      PickBranchElement(state, uncovered, gains.data(), degree);
  if (degree == 0) return;  // no live set covers e: infeasible branch

  // Live candidate sets containing e, largest marginal gain first, each
  // with its exact gain. An excluded set is skipped before its gain could
  // be recounted, which would bring it back. Built from e's incidence
  // list, in increasing set id order, so the (unstable) sort sees the same
  // sequence on every run and the search order is reproducible.
  using Candidate = std::pair<Count, SetId>;
  ArenaVector<Candidate> candidates{ArenaAllocator<Candidate>(&scratch)};
  candidates.reserve(degree);
  for (std::uint32_t k = state.first[e]; k < state.first[e + 1]; ++k) {
    const SetId i = state.covering[k];
    if (gains[i] == 0) continue;
    if (!counted(i)) gains[i] = state.sets[i].CountAnd(uncovered);
    candidates.emplace_back(gains[i], i);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });

  // A child takes at most g_max more elements and has at most
  // budget - depth - 1 sets of slack, so its cut is at least
  // ceil((remaining - g_max) / (budget - depth - 1)); clamping that slack
  // to `remaining`, as above, lowers the figure only where a child's cut
  // is 1 anyway. Counting every set whose bound reaches it (a cut of at
  // least 1, so excluded sets stay out) hands the children exact gains
  // where their bound scans look, instead of bounds inherited from
  // further up. The candidates are counted already and
  // are exactly the live sets on e's incidence list, which is in
  // increasing id order, so the sweep walks it alongside to skip them. No
  // child scans when no slack is left, or when the largest candidate
  // covers the rest: that child is a cover, which leaves its siblings no
  // budget.
  const Count g_max = candidates.front().first;
  if (budget - depth > 1 && g_max < remaining) {
    const Count child_cut = CeilDiv(
        remaining - g_max, std::min<Count>(budget - depth - 1, remaining));
    std::uint32_t k = state.first[e];
    for (SetId i = 0; i < m; ++i) {
      while (k < state.first[e + 1] && state.covering[k] < i) ++k;
      if (k < state.first[e + 1] && state.covering[k] == i) continue;
      if (gains[i] < child_cut || counted(i)) continue;
      gains[i] = state.sets[i].CountAnd(uncovered);
    }
  }

  // A candidate's subtree searches every cover that extends `current` by
  // that candidate, so once it returns the later siblings' subtrees
  // exclude it: its gain reads 0 from then on, which also drops it from
  // their bounds and their branching rule.
  for (const auto& [gain, id] : candidates) {
    (void)gain;
    if (state.budget_exhausted) return;
    state.current.push_back(id);
    {
      const ArenaCheckpoint child_checkpoint(scratch);
      DynamicBitset next(uncovered, DynamicBitset::Allocator(&scratch));
      state.sets[id].AndNotInto(next);
      Search(state, next, gains.data());
    }
    state.current.pop_back();
    gains[id] = 0;
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

  // The root's gains, on the scratch arena under a checkpoint that
  // outlives the search's own LIFO scratch use. If the root's counting
  // bound refutes size_limit on its own (no set reaches the cut, or the
  // limit is 0), no cover fits the limit, greedy's included, so the
  // search would stop at its first node: answer that without building
  // anything. A node budget of 0 stops the search before the bound is
  // read, so that call takes the full path.
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint scratch_checkpoint(scratch);
  const std::size_t m = system.num_sets();
  ArenaVector<Count> root_gains{ArenaAllocator<Count>(&scratch)};
  root_gains.resize(m);
  Count max_gain = 0;
  for (SetId i = 0; i < m; ++i) {
    root_gains[i] = system.set(i).CountAnd(universe);
    max_gain = std::max(max_gain, root_gains[i]);
  }
  if (options.max_nodes > 0) {
    const Count remaining = universe.CountSet();
    const Count slack = std::min<Count>(options.size_limit, remaining);
    if (slack == 0 || max_gain < CeilDiv(remaining, slack)) {
      result.complete = true;
      result.nodes = 1;
      return result;
    }
  }

  // Bracket the call-scoped search state (set views, incidence lists,
  // incumbent vectors) on the table arena. The checkpoint outlives the
  // inner scope, so the containers are destroyed (deallocate is a no-op)
  // before the bytes are reclaimed; the result was copied into
  // result_alloc by then.
  const ArenaCheckpoint table_checkpoint(ThreadTableArena());
  {
    SearchState state;
    state.options = options;
    state.root_gains = root_gains.data();
    state.sets.reserve(m);
    // Incidence lists: count each element's sets into first[e], turn the
    // counts into running ends, then fill every list back to front from
    // the highest set id down, which leaves first[e] at the list's start
    // and each list in increasing id order.
    const std::size_t n = system.universe_size();
    state.first.assign(n + 1, 0);
    for (SetId i = 0; i < m; ++i) {
      const SetView set = system.set(i);
      state.sets.push_back(set);
      set.ForEach([&state](ElementId e) { ++state.first[e]; });
    }
    for (std::size_t e = 1; e < n; ++e) state.first[e] += state.first[e - 1];
    state.first[n] = state.first[n - 1];
    state.covering.resize(state.first[n]);
    for (SetId i = m; i-- > 0;) {
      state.sets[i].ForEach(
          [&state, i](ElementId e) { state.covering[--state.first[e]] = i; });
    }

    // Greedy warm start gives the incumbent upper bound (if feasible and
    // within the requested size limit). Its picks stop at size_limit: they
    // are a prefix of the full greedy cover, and a longer cover could never
    // be the incumbent. The warm-start solution is call-scoped too, so it
    // lands on the table arena alongside the state.
    const Solution greedy =
        GreedyMaxCoverage(system, universe, std::min(options.size_limit, m),
                          ArenaAllocator<SetId>::Table());
    {
      const ArenaCheckpoint checkpoint(scratch);
      if (universe.IsSubsetOf(system.UnionOf(
              greedy.chosen, DynamicBitset::Allocator(&scratch)))) {
        state.best.assign(greedy.chosen.begin(), greedy.chosen.end());
        state.best_feasible = true;
      }
    }

    Search(state, universe, nullptr);

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
