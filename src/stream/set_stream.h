#ifndef STREAMSC_STREAM_SET_STREAM_H_
#define STREAMSC_STREAM_SET_STREAM_H_

#include <cstdint>
#include <vector>

#include "instance/set_system.h"
#include "util/common.h"
#include "util/random.h"
#include "util/set_view.h"

/// \file set_stream.h
/// The streaming substrate: sets arrive one by one; algorithms may make
/// several passes, and every pass is counted. The stream hands out
/// *references* to the sets — an algorithm is only charged (by its
/// SpaceMeter) for what it chooses to retain, matching the paper's model
/// where reading an item is free but storing it costs space. Within a pass
/// any item can be read by its stream position (ItemAt), which is how the
/// pass primitives of engine_context.h scan, sequentially or sharded;
/// BeginPass() starts and counts each pass.

namespace streamsc {

/// One stream arrival: the set's id in the underlying system plus a
/// borrowed view of its contents, valid until the stream's next
/// BeginPass().
struct StreamItem {
  SetId id = kInvalidSetId;
  SetView set;
};

/// Abstract multi-pass stream of sets. A stream serves the item at any
/// position of the current pass through ItemAt(); the pass cursor
/// (BeginPass/Next) and the pass counter live here, once, on top of it.
/// Every item view handed out during a pass stays valid until the next
/// BeginPass(), and ItemAt() is const and safe to call concurrently, so a
/// ParallelPassEngine shards a pass by position with no buffer.
class SetStream {
 public:
  SetStream() = default;
  virtual ~SetStream() = default;

  // A copy would duplicate the pass count; streams are bound by reference.
  SetStream(const SetStream&) = delete;
  SetStream& operator=(const SetStream&) = delete;

  /// Universe size n of the streamed system.
  virtual std::size_t universe_size() const = 0;

  /// Number of sets per pass (m).
  virtual std::size_t num_sets() const = 0;

  /// The item at stream position \p pos < num_sets() of the current pass.
  /// Const and safe to call concurrently; the view stays valid until the
  /// next BeginPass().
  virtual StreamItem ItemAt(std::size_t pos) const = 0;

  /// Starts a new pass. Must be called before the first Next() of each
  /// pass; increments the pass counter.
  virtual void BeginPass() {
    cursor_ = 0;
    ++passes_;
  }

  /// Produces the next item of the current pass (ItemAt of the cursor).
  /// Returns false at end-of-pass.
  bool Next(StreamItem* item);

  /// Number of passes started so far.
  std::uint64_t passes() const { return passes_; }

 private:
  std::size_t cursor_ = 0;
  std::uint64_t passes_ = 0;
};

/// How a VectorSetStream orders its items.
enum class StreamOrder {
  kAdversarial,     ///< The system's insertion order (fixed, worst-case-ish).
  kRandomOnce,      ///< One uniform permutation, same for every pass
                    ///< (the paper's random arrival model).
  kRandomEachPass,  ///< Fresh permutation each pass (robustness probes).
};

/// A SetStream over an in-memory SetSystem (not owned; must outlive the
/// stream).
class VectorSetStream : public SetStream {
 public:
  /// Streams \p system in \p order; \p rng is used for random orders (may
  /// be null for kAdversarial only — CHECK-fails loudly, in all build
  /// modes, when a random order is requested without an Rng).
  VectorSetStream(const SetSystem& system, StreamOrder order, Rng* rng);

  /// Adversarial-order convenience constructor.
  explicit VectorSetStream(const SetSystem& system)
      : VectorSetStream(system, StreamOrder::kAdversarial, nullptr) {}

  std::size_t universe_size() const override;
  std::size_t num_sets() const override;
  StreamItem ItemAt(std::size_t pos) const override {
    const SetId id = order_[pos];
    return StreamItem{id, system_.set(id)};
  }
  /// Reshuffles before every pass but the first under kRandomEachPass.
  void BeginPass() override;

  /// The permutation currently in effect (for tests).
  const std::vector<SetId>& order() const { return order_; }

 private:
  const SetSystem& system_;
  StreamOrder order_kind_;
  Rng* rng_;
  std::vector<SetId> order_;
};

}  // namespace streamsc

#endif  // STREAMSC_STREAM_SET_STREAM_H_
