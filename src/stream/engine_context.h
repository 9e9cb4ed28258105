#ifndef STREAMSC_STREAM_ENGINE_CONTEXT_H_
#define STREAMSC_STREAM_ENGINE_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"
#include "stream/parallel_pass_engine.h"
#include "stream/set_stream.h"
#include "stream/stream_algorithm.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/common.h"
#include "util/function_ref.h"
#include "util/space_meter.h"

/// \file engine_context.h
/// EngineContext: the shared plumbing between a streaming solver and the
/// ParallelPassEngine. It decides once per pass between the sequential
/// loop and the sharded scan, exposes the pass shapes every solver in
/// core/ is built from, and counts the work it drives so runs can be
/// compared across thread counts and stream sources. Every primitive
/// begins one stream pass and reads it by position — ItemAt(0..m) in
/// order when sequential, ItemAt(i) from the pool's workers when sharded
/// — so no pass is ever copied.
///
/// It is also the run's only ledger: the engine.* counters, the run's
/// SpaceMeter (meter()) and the StreamRunStats built from both (Stats()).
/// Every pass a solver makes goes through one of the primitives below,
/// each of which counts itself, so Stats().passes — read from the
/// engine.passes counter — is the number of passes the run made over the
/// stream.
///
/// Determinism contract: for a fixed stream order, results are
/// **bit-identical** whether the context runs sequentially (null engine)
/// or sharded over any number of threads — and whether or not a run
/// arena is bound. Parallelism is used only where item work is
/// independent (projection, lanes) or where a parallel phase is provably
/// equivalent to the sequential loop (GainScanPass's monotone-gain filter
/// and in-order commit). Merges happen in stream order at pass end; no
/// result ever depends on thread scheduling.
///
/// Allocation contract: the pass primitives allocate nothing per pass —
/// items are read from the stream by position, snapshot and commit
/// staging lives in thread-local scratch arenas, and callbacks travel as
/// FunctionRef. The run arena holds only the solver's own run state and
/// is touched only by the orchestrating thread; workers stage in their
/// own scratch (rewound at job pickup) and the commit phases copy staged
/// payloads out in stream order before the next job is posted.

namespace streamsc {

/// The well-known interned counters every EngineContext accumulates in
/// its CounterSet; readers take them with `counters().value(Passes())`.
/// Handles are function-local statics: the first call interns, later
/// calls are one guarded load. The first four are deterministic: for a
/// fixed stream order they are the same for any thread count and any
/// stream source (unlike wall time or peak RSS), and the conformance
/// matrix asserts exactly that. The shard pair describes how work was
/// dispatched and therefore varies with engine width — deterministic for
/// a fixed width, but not comparable across widths.
namespace engine_counters {
CounterId Passes();           ///< "engine.passes": stream passes driven
CounterId ItemsScanned();     ///< "engine.items_scanned": num_sets per pass
CounterId SetsTaken();        ///< "engine.sets_taken": committed takes, incl.
                              ///< recorded offline sub-solver picks
CounterId ElementsCovered();  ///< "engine.elements_covered": sum of
                              ///< committed marginal gains
CounterId ShardJobs();        ///< "engine.shard_jobs" (width-dependent)
CounterId ShardItems();       ///< "engine.shard_items" (width-dependent)
}  // namespace engine_counters

/// Resolves a user-facing thread-count request: 1 yields a null engine
/// (the sequential path has no pool to pay for), anything larger a pool of
/// that size. CHECK-fails on 0 — "all cores" is a policy decision the
/// caller must make explicitly (std::thread::hardware_concurrency()), not
/// a default this helper guesses at.
std::unique_ptr<ParallelPassEngine> MakeEngine(std::size_t num_threads);

/// CHECK-fails unless \p engine is non-null — i.e. unless an EngineContext
/// over the pair would actually shard (every stream serves its items by
/// position, so \p stream never decides). For harnesses that measure
/// parallel speedups: a silent sequential run would report a 1.0x
/// "speedup" instead of the configuration error it is.
void RequireSharded(const SetStream& stream, const ParallelPassEngine* engine);

/// A per-run binding of one stream, one (optional) engine, and one
/// (optional) arena, plus the deterministic pass primitives. Not
/// thread-safe itself (one context per run); the engine may be shared
/// across runs sequentially. Nothing is owned; stream, engine, and arena
/// must all outlive the context.
class EngineContext {
 public:
  /// Binds the execution resources of \p context for one run. The engine
  /// may be null (every pass runs sequentially); a bound engine shards
  /// every pass — same results, by contract. The arena may be null (run
  /// state falls back to the heap).
  EngineContext(SetStream& stream, const RunContext& context)
      : stream_(stream),
        engine_(context.engine),
        arena_(context.arena),
        trace_(context.trace) {}

  /// Engine-only binding (no arena) for harnesses that exercise the pass
  /// machinery directly.
  EngineContext(SetStream& stream, ParallelPassEngine* engine)
      : EngineContext(stream, RunContext{engine, nullptr}) {}

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  SetStream& stream() { return stream_; }
  ParallelPassEngine* engine() const { return engine_; }

  /// The run arena (null means heap-backed run state).
  MonotonicArena* arena() const { return arena_; }

  /// Allocator handle over the run arena; degrades to the heap when no
  /// arena is bound. The idiom for solver-owned run state:
  /// `ArenaVector<SetId> chosen(ctx.alloc<SetId>());`.
  template <typename T>
  ArenaAllocator<T> alloc() const {
    return ArenaAllocator<T>(arena_);
  }

  /// True iff an engine is bound, so passes shard over its pool.
  bool sharded() const { return engine_ != nullptr; }

  /// The span recorder bound for this run (null = tracing off). Solvers
  /// use it to annotate their algorithm phases:
  /// `TraceSpan span(ctx.trace(), TraceCategory::kPhase, "sample");`.
  TraceRecorder* trace() const { return trace_; }

  /// The full interned counter set (engine.* plus anything the solver
  /// adds under its own ids). Mutable access so solvers can record
  /// algorithm-specific counters next to the engine's.
  CounterSet& counters() { return counters_; }
  const CounterSet& counters() const { return counters_; }

  /// The run's logical space meter: solvers Charge/Release what they
  /// retain between stream items (the paper's space measure).
  SpaceMeter& meter() { return meter_; }

  /// The run's statistics so far: passes from the engine.passes counter,
  /// the meter's peak and a snapshot of every counter.
  StreamRunStats Stats() const {
    return StreamRunStats{counters_.value(engine_counters::Passes()),
                          meter_.peak(), counters_};
  }

  /// Records one committed take of \p gain newly covered elements.
  /// The threshold/cleanup passes call this themselves; solvers call it
  /// for takes the context cannot see (offline sub-solver picks, witness
  /// closures).
  void RecordTake(Count gain) { RecordTakes(1, gain); }

  /// Bulk form of RecordTake.
  void RecordTakes(std::uint64_t sets, std::uint64_t elements) {
    counters_.Add(engine_counters::SetsTaken(), sets);
    counters_.Add(engine_counters::ElementsCovered(), elements);
  }

  /// One pruning-scan pass: sequentially equivalent to
  ///
  ///   for item in stream:                      # in stream order
  ///     gain = |item.set & uncovered|
  ///     if gain > 0 and gain >= threshold:
  ///       on_take(item.id); uncovered \= item.set
  ///
  /// Sharded, gains are precomputed against chunk snapshots and committed
  /// in order (see GainScanPass). Takes are counted automatically.
  void ThresholdPass(double threshold, DynamicBitset& uncovered,
                     FunctionRef<void(SetId)> on_take);

  /// The generic monotone-gain scan underneath every threshold-style
  /// pass. Calls visit(item, gain_bound, bound_is_exact) in stream order
  /// for every item whose bound is positive, where
  ///
  ///   * sequential: gain_bound == |item.set & uncovered| at the item's
  ///     turn (bound_is_exact == true);
  ///   * sharded: gain_bound is the gain against a chunk-start snapshot
  ///     of `uncovered` (bound_is_exact == false). Because `uncovered`
  ///     only shrinks within a pass, the bound never underestimates:
  ///     current gain <= gain_bound always.
  ///
  /// visit may clear bits of `uncovered` (taking the item). For the
  /// results to be thread-count-invariant, visit must (a) treat an
  /// inexact bound as an upper bound — re-evaluate against `uncovered`
  /// before acting on its magnitude — and (b) be a no-op whenever the
  /// item's *current* gain is zero, since items whose snapshot gain is
  /// positive but current gain is zero are visited in sharded mode only.
  void GainScanPass(DynamicBitset& uncovered,
                    FunctionRef<void(const StreamItem&, Count, bool)> visit);

  /// One pass mapping every item through \p transform (pure, called
  /// concurrently when sharded) and handing the results to \p commit in
  /// stream order. The projection-storing pass of the sampling solvers.
  ///
  /// Sharded, transform runs on worker threads: any storage it allocates
  /// must come from the worker's thread-local scratch (allocator binding
  /// ArenaBinding::kScratch), never from the run arena. The staged
  /// results are handed to \p commit on the orchestrating thread before
  /// the next job is posted — commit re-homes whatever it keeps (the
  /// arena-aware containers' explicit-allocator copy constructors), since
  /// worker scratch is rewound at the worker's next job pickup.
  template <typename T, typename TransformFn, typename CommitFn>
  void TransformPass(TransformFn&& transform, CommitFn&& commit) {
    const PassScope scope(*this, "transform");
    BeginCountedPass();
    const std::size_t m = stream_.num_sets();
    if (!sharded()) {
      for (std::size_t pos = 0; pos < m; ++pos) {
        const StreamItem item = stream_.ItemAt(pos);
        commit(item, transform(item));
      }
      return;
    }
    // The staging slots live in the orchestrator's scratch; the payloads
    // the workers move into them live in each worker's own scratch. Both
    // are transient: commit copies out, the checkpoint rewinds the slots.
    MonotonicArena& scratch = ThreadScratchArena();
    const ArenaCheckpoint checkpoint(scratch);
    ArenaVector<T> out(m, ArenaAllocator<T>(&scratch));
    engine_->ParallelFor(
        m, [&](std::size_t pos) { out[pos] = transform(stream_.ItemAt(pos)); },
        trace_);
    for (std::size_t pos = 0; pos < m; ++pos) {
      commit(stream_.ItemAt(pos), std::move(out[pos]));
    }
  }

  /// One pass feeding every item to \p num_lanes independent state
  /// machines: visit(lane, item) for every (lane, item) combination, with
  /// items in stream order within each lane. Sequential the loop is
  /// item-major; sharded it is lane-major with lanes in parallel, which
  /// is equivalent exactly because lanes are independent — visit must
  /// touch only lane-local state (it is called concurrently for distinct
  /// lanes, from worker threads whose scratch arenas are job-scoped).
  /// The sieve-style algorithms' guess grids are lanes.
  void IndependentScanPass(
      std::size_t num_lanes,
      FunctionRef<void(std::size_t, const StreamItem&)> visit);

  /// One pass subtracting the contents of the \p chosen sets (ids, any
  /// order) from \p uncovered; newly covered elements are added to the
  /// element counter. The "recover the full contents of OPT'" pass of the
  /// sampling solvers.
  void SubtractPass(std::span<const SetId> chosen, DynamicBitset& uncovered);

  /// One pass OR-ing the contents of the \p chosen sets into \p covered
  /// (which must be sized to the universe). The verification pass of the
  /// max-coverage solvers.
  void UnionPass(std::span<const SetId> chosen, DynamicBitset& covered);

  /// One pass taking any set that still intersects \p uncovered, until it
  /// empties — the feasibility-cleanup pass shared by the guess-driven
  /// solvers. Takes are counted automatically.
  void CoverResiduePass(DynamicBitset& uncovered,
                        FunctionRef<void(SetId)> on_take);

  /// Index-parallel helper for pure per-index work on state the solver
  /// owns (candidate filtering, row seeding); it does not touch the
  /// stream. Uses the engine whenever one is present. \p fn must be safe
  /// to call concurrently for distinct indices and must not depend on
  /// order.
  void ParallelFor(std::size_t count, FunctionRef<void(std::size_t)> fn);

 private:
  /// RAII bracket around one pass primitive: accumulates the shard
  /// dispatch counters (always — they are part of the counter registry's
  /// single-source-of-truth contract, and cost two integer reads per
  /// *pass*, not per item) and, when a recorder is bound, emits one
  /// kPass span whose args are the pass's own counter deltas
  /// (items/shards/takes/covered). With tracing off the span side is a
  /// single branch.
  class PassScope {
   public:
    PassScope(EngineContext& ctx, const char* name)
        : ctx_(ctx),
          name_(name),
          start_ns_(ctx.trace_ != nullptr ? TraceRecorder::NowNs() : 0),
          jobs0_(ctx.engine_ != nullptr ? ctx.engine_->jobs_posted() : 0),
          shard_items0_(
              ctx.engine_ != nullptr ? ctx.engine_->items_dispatched() : 0),
          items0_(ctx.counters_.value(engine_counters::ItemsScanned())),
          takes0_(ctx.counters_.value(engine_counters::SetsTaken())),
          covered0_(
              ctx.counters_.value(engine_counters::ElementsCovered())) {}

    ~PassScope() {
      const std::uint64_t jobs =
          (ctx_.engine_ != nullptr ? ctx_.engine_->jobs_posted() : 0) -
          jobs0_;
      const std::uint64_t shard_items =
          (ctx_.engine_ != nullptr ? ctx_.engine_->items_dispatched() : 0) -
          shard_items0_;
      ctx_.counters_.Add(engine_counters::ShardJobs(), jobs);
      ctx_.counters_.Add(engine_counters::ShardItems(), shard_items);
      if (ctx_.trace_ == nullptr) return;
      const TraceArg args[] = {
          {"items",
           ctx_.counters_.value(engine_counters::ItemsScanned()) - items0_},
          {"shards", jobs},
          {"takes",
           ctx_.counters_.value(engine_counters::SetsTaken()) - takes0_},
          {"covered",
           ctx_.counters_.value(engine_counters::ElementsCovered()) -
               covered0_}};
      ctx_.trace_->Emit(TraceCategory::kPass, name_, start_ns_,
                        TraceRecorder::NowNs() - start_ns_, args, 4);
    }

    PassScope(const PassScope&) = delete;
    PassScope& operator=(const PassScope&) = delete;

   private:
    EngineContext& ctx_;
    const char* name_;
    std::int64_t start_ns_;
    std::uint64_t jobs0_;
    std::uint64_t shard_items0_;
    std::uint64_t items0_;
    std::uint64_t takes0_;
    std::uint64_t covered0_;
  };

  // Starts and counts one pass. Every primitive calls it once per pass
  // and then reads the pass by position (ItemAt), so engine.passes — the
  // run's reported pass count — moves with the stream's own passes().
  void BeginCountedPass() {
    stream_.BeginPass();
    counters_.Add(engine_counters::Passes(), 1);
    counters_.Add(engine_counters::ItemsScanned(), stream_.num_sets());
  }

  // The named core of GainScanPass, so ThresholdPass's span reads
  // "threshold" instead of the generic "gain_scan" it delegates to.
  void GainScanPassNamed(
      const char* name, DynamicBitset& uncovered,
      FunctionRef<void(const StreamItem&, Count, bool)> visit);

  // The one membership pass under SubtractPass and UnionPass: hands every
  // streamed set whose id is in \p chosen to \p fold, in stream order.
  // With a non-null \p uncovered (the set \p fold subtracts from) it stops
  // once that is empty and counts the elements it lost as covered. No
  // pass at all when \p chosen is empty.
  void ChosenSetsPass(const char* name, std::span<const SetId> chosen,
                      DynamicBitset* uncovered,
                      FunctionRef<void(SetView)> fold);

  SetStream& stream_;
  ParallelPassEngine* engine_;
  MonotonicArena* arena_;
  TraceRecorder* trace_;
  CounterSet counters_;
  SpaceMeter meter_;
};

}  // namespace streamsc

#endif  // STREAMSC_STREAM_ENGINE_CONTEXT_H_
