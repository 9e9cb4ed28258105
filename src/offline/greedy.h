#ifndef STREAMSC_OFFLINE_GREEDY_H_
#define STREAMSC_OFFLINE_GREEDY_H_

#include "instance/set_system.h"
#include "util/arena.h"

/// \file greedy.h
/// Classic offline greedy algorithms: (ln n)-approximate set cover
/// [Johnson'74, Slavik'97] and (1-1/e)-approximate maximum coverage.
/// These are the unbounded-computation reference points used as sub-routine
/// fallbacks and as quality baselines in the benches.
///
/// Pick order: every pick is the set of maximum marginal gain on the still
/// uncovered part of the universe, lowest id on ties. Callers and golden
/// tests depend on exactly this order.
///
/// Both functions share one lazy (stale-gain) selection kernel: each set is
/// scored once (one CountAnd), then kept in a max-heap keyed by its last
/// gain. Gains only fall, so a key is an upper bound; the top set is
/// re-scored and taken if its key still holds, else it sinks with the new
/// gain. Each pick thus costs the re-scores of the sets whose keys went
/// stale, usually a few, instead of m; the worst case is one re-score and
/// one O(log m) sift per set per pick. Extra memory is one 8-byte heap key
/// per set.
///
/// Arena-aware: \p alloc backs the returned Solution (heap by default);
/// the internal uncovered-state copy and the heap stage in the calling
/// thread's scratch arena under a checkpoint. Because of that checkpoint,
/// \p alloc must NOT be the scratch binding (the rewind would free the
/// result) — pass the table binding, a pinned run arena, or the heap
/// default.

namespace streamsc {

/// Greedy set cover restricted to covering \p universe (a subset of the
/// system's universe): repeatedly takes the set with the largest number of
/// still-uncovered elements of \p universe. Returns the chosen ids in pick
/// order. If \p universe is not coverable by the system, covers as much as
/// possible and returns what it picked (callers can check feasibility).
Solution GreedySetCover(const SetSystem& system, const DynamicBitset& universe,
                        ArenaAllocator<SetId> alloc = {});

/// Greedy set cover of the full universe.
Solution GreedySetCover(const SetSystem& system,
                        ArenaAllocator<SetId> alloc = {});

/// Greedy maximum coverage: picks up to \p k sets maximizing marginal
/// coverage of \p universe. Ties broken by lower id. Returns fewer than k
/// ids if \p universe is covered first, or if no remaining set adds
/// coverage of it.
Solution GreedyMaxCoverage(const SetSystem& system,
                           const DynamicBitset& universe, std::size_t k,
                           ArenaAllocator<SetId> alloc = {});

/// Greedy maximum coverage over the full universe.
Solution GreedyMaxCoverage(const SetSystem& system, std::size_t k,
                           ArenaAllocator<SetId> alloc = {});

}  // namespace streamsc

#endif  // STREAMSC_OFFLINE_GREEDY_H_
