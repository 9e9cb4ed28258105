#ifndef STREAMSC_CORE_PAIR_FINDER_H_
#define STREAMSC_CORE_PAIR_FINDER_H_

#include <cstdint>
#include <string>

#include "stream/stream_algorithm.h"

/// \file pair_finder.h
/// Exact recovery of a size-2 cover in p passes with ~m·n/p-bit working
/// state — the *linear* pass/space tradeoff for exact streaming set cover
/// that Result 1 establishes as the right one (footnote 1 of the paper:
/// "the right tradeoff ... is in fact linear, i.e., n/p, as opposed to
/// n^{1/p}").
///
/// The algorithm splits the universe into p chunks. Pass j stores every
/// set's projection onto chunk j (m·n/p bits), eliminates candidate pairs
/// whose unions miss a chunk element, and then discards the projections.
/// The surviving-candidate bookkeeping starts as all pairs and collapses
/// geometrically on D_SC-style inputs. Specialized to opt = 2 instances
/// (the regime of the paper's hard distribution, Remark 1.1: the hard
/// instances have constant-size optima).

namespace streamsc {

/// Configuration of the chunked exact pair finder.
struct PairFinderConfig {
  std::size_t passes = 4;  ///< Number of universe chunks / passes (p >= 1,
                           ///< CHECK-enforced in every build mode).
  /// Safety cap on the candidate list retained between passes; runs abort
  /// (infeasible result) if exceeded. The candidate list is seeded by the
  /// first chunk rather than materializing all m² pairs.
  std::size_t max_candidates = 4'000'000;
};

/// Outcome of a pair-finder run.
struct PairFinderResult {
  Solution solution;          ///< The covering pair (empty if none).
  bool found = false;         ///< True iff a size-2 cover exists & found.
  std::uint64_t candidates_after_first_pass = 0;
  StreamRunStats stats;
};

/// Finds a 2-set cover exactly in `config.passes` passes.
class ExactPairFinder {
 public:
  explicit ExactPairFinder(PairFinderConfig config);

  std::string name() const;

  /// The engine in \p context (if any) shards the projection-storing
  /// pass, the candidate seeding, and the survivor filtering. Candidate order —
  /// and with it the returned pair — is bit-identical for any thread
  /// count: parallel phases only precompute per-row/per-candidate facts
  /// which are then committed in the sequential order.
  PairFinderResult Run(SetStream& stream, const RunContext& context) const;

  /// Sequential convenience overload.
  PairFinderResult Run(SetStream& stream) const { return Run(stream, {}); }

 private:
  PairFinderConfig config_;
};

}  // namespace streamsc

#endif  // STREAMSC_CORE_PAIR_FINDER_H_
