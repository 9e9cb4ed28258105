#ifndef STREAMSC_CORE_COVER_RUN_H_
#define STREAMSC_CORE_COVER_RUN_H_

#include <span>

#include "instance/set_system.h"
#include "stream/engine_context.h"
#include "stream/set_stream.h"
#include "stream/stream_algorithm.h"
#include "util/bitset.h"

/// \file cover_run.h
/// CoverRun: one set-cover run in progress. The paper measures a run's
/// space as the uncovered set U plus the stored solution (plus whatever
/// the algorithm keeps on top, such as the sampling solvers'
/// projections); CoverRun holds those two once for every streaming
/// set-cover solver and for the session's warm re-solve.
///
/// It owns the run's EngineContext (its ledger of passes, space and
/// counters), builds U full on the run arena and charges it to the
/// `uncovered` space category, and meters the solution ids under the
/// `solution` category on every take.
/// Solvers charge anything else they keep under their own categories
/// through ctx().meter().

namespace streamsc {

class CoverRun {
 public:
  /// Binds \p context for one run over \p stream; U starts as the whole
  /// universe and the solution empty.
  CoverRun(SetStream& stream, const RunContext& context);

  CoverRun(const CoverRun&) = delete;
  CoverRun& operator=(const CoverRun&) = delete;

  EngineContext& ctx() { return ctx_; }
  const EngineContext& ctx() const { return ctx_; }
  DynamicBitset& uncovered() { return uncovered_; }
  const DynamicBitset& uncovered() const { return uncovered_; }

  /// Takes the streamed \p item, whose current marginal gain is \p gain:
  /// appends it, subtracts it from U and records the take.
  void Take(const StreamItem& item, Count gain);

  /// One threshold pass over U (EngineContext::ThresholdPass).
  void ThresholdPass(double threshold);

  /// One pass taking every set that still intersects U, until U is empty
  /// (EngineContext::CoverResiduePass).
  void CoverResiduePass();

  /// Takes the sets \p ids whose contents the run has not seen (offline
  /// sub-solver picks, witnesses, the kept prefix of a warm re-solve):
  /// appends them, records ids.size() takes of no gain and subtracts their
  /// full contents from U in one pass.
  void TakeAndSubtract(std::span<const SetId> ids);

  /// Ends the run: the solution, whether U is empty, and the run's stats.
  SetCoverRunResult Finish();

 private:
  // Appends \p id to the solution; the pass that took it records the take.
  void Take(SetId id);
  void Append(std::span<const SetId> ids);

  EngineContext ctx_;
  DynamicBitset uncovered_;
  Solution solution_;
};

}  // namespace streamsc

#endif  // STREAMSC_CORE_COVER_RUN_H_
