#ifndef STREAMSC_OFFLINE_EXACT_SET_COVER_H_
#define STREAMSC_OFFLINE_EXACT_SET_COVER_H_

#include <cstdint>

#include "instance/set_system.h"
#include "util/arena.h"

/// \file exact_set_cover.h
/// Exact minimum set cover via branch-and-bound.
///
/// The streaming model of the paper does not restrict computation time, and
/// Algorithm 1 (step 3c) explicitly requires an *optimal* cover of the
/// in-memory sub-instance. This solver provides that: min-degree element
/// branching, greedy warm start, a counting lower bound, and a node budget
/// after which it degrades gracefully to the best solution found (flagged
/// as not proven optimal).
///
/// A node branches on an uncovered element e over the sets containing it,
/// largest gain first. Once a candidate's subtree returns, every cover
/// that takes it has been searched, so the later siblings' subtrees
/// exclude it: each cover is reached in one order only. An excluded set
/// reads gain 0 below that node, which drops it from the counting bound
/// and from the branching rule, whose degree counts only the live sets
/// covering an element.
///
/// A call first counts all m gains against the universe. If the root's
/// counting bound already refutes options.size_limit (or the limit is 0),
/// no cover fits it and the call answers infeasible and complete after
/// one node, before any set-up (a node budget of 0 stops the search before
/// that bound is read, so such a call takes the full path and answers
/// incomplete). Otherwise work that never changes during a search is done
/// once: the sets are resolved to SetViews, and
/// incidence lists (n + 1 offsets and one set id per element-set
/// incidence, two passes over the sets) give each element's covering sets
/// in increasing id order, so the branching rule walks one list per
/// element it scans and a candidate list costs one entry per covering
/// set. The greedy warm start stops after size_limit picks: a longer
/// greedy cover could never be the incumbent.
///
/// Only the root has all m gains exact. A child's uncovered region is a
/// subset of its parent's, so the parent's gains bound the child's from
/// above, and a node counts a gain exactly only where it can matter: for
/// the counting bound, the sets whose bound reaches the gain the bound
/// needs, up to the first that really does; for the branch order, the
/// live sets containing the branch element; and, once the node has sorted
/// its candidates, every other live set whose bound reaches the lowest cut
/// any child can have, ceil((remaining - g_max) / (budget - depth - 1))
/// with g_max the largest candidate gain. That last sweep hands the
/// children exact gains where their bound scans look, so a child the
/// bound cuts pays for the few sets that could have kept it alive, not
/// for bounds gone stale further up the tree. Every prune decision,
/// candidate gain and search order is the one a full sweep would give. A
/// node further costs a popcount of the uncovered bitset (the bound), an
/// m-entry copy of its parent's gains, and one word-level copy per child.
///
/// Arena discipline: the root's gains and the per-node temporaries (gain
/// and candidate lists, branch bitsets) stage LIFO in the calling
/// thread's scratch arena; the call-scoped search state (set views,
/// incidence lists, incumbent) brackets the thread's table arena and is
/// rewound before returning, so a call's memory is bounded by the
/// instance and the search depth, never by its node count. A call the
/// root refutes never touches the table arena. \p result_alloc backs the
/// returned solution and therefore must be neither the scratch nor the
/// table binding — pass a pinned run arena or the heap default.

namespace streamsc {

/// Tuning knobs for the branch-and-bound search.
struct ExactSetCoverOptions {
  /// Maximum number of search nodes before giving up on optimality.
  std::uint64_t max_nodes = 50'000'000;
  /// Optional upper bound on solution size; the search only looks for
  /// covers strictly smaller than incumbent bounds anyway, but callers
  /// with a known budget (e.g. õpt) can prune harder.
  std::size_t size_limit = ~std::size_t{0};
};

/// Result of an exact solve.
struct ExactSetCoverResult {
  /// Best cover found (empty if the target universe is empty; also empty
  /// if infeasible — check `feasible`).
  Solution solution;
  /// True iff `solution` covers the requested universe.
  bool feasible = false;
  /// True iff the search ran to completion (node budget not hit). When
  /// complete && !feasible, there is provably no cover within
  /// options.size_limit — the decision primitive the D_SC experiments use.
  bool complete = false;
  /// True iff the solver proved `solution` minimum among covers of size
  /// <= options.size_limit.
  bool proven_optimal = false;
  /// Search nodes expanded.
  std::uint64_t nodes = 0;
};

/// Finds a minimum collection of sets covering \p universe.
ExactSetCoverResult SolveExactSetCover(
    const SetSystem& system, const DynamicBitset& universe,
    const ExactSetCoverOptions& options = {},
    ArenaAllocator<SetId> result_alloc = {});

/// Finds a minimum cover of the system's full universe.
ExactSetCoverResult SolveExactSetCover(
    const SetSystem& system, const ExactSetCoverOptions& options = {},
    ArenaAllocator<SetId> result_alloc = {});

}  // namespace streamsc

#endif  // STREAMSC_OFFLINE_EXACT_SET_COVER_H_
