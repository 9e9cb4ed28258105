#ifndef STREAMSC_INSTANCE_SET_SYSTEM_H_
#define STREAMSC_INSTANCE_SET_SYSTEM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/common.h"
#include "util/set_view.h"
#include "util/sparse_set.h"
#include "util/status.h"

/// \file set_system.h
/// SetSystem: a collection of m subsets of a universe [n]. This is the
/// shared input representation for the offline solvers, the streaming
/// algorithms (which consume it through SetStream), and the hard-instance
/// distributions.
///
/// Storage is *hybrid*: each set is kept either densely (DynamicBitset,
/// n bits) or sparsely (SparseSet, 32 bits per member), chosen per set at
/// insertion by a density threshold. Consumers read sets through SetView
/// (set(id)), which dispatches to the stored representation — sparse
/// instances scan in O(k) per set instead of O(n/64) and occupy memory
/// proportional to their incidences rather than m·n.

namespace streamsc {

/// An immutable-universe, growable collection of subsets of [n].
class SetSystem {
 public:
  /// Default density threshold below which a set is stored sparsely.
  /// 1/32 is the memory break-even point: a k-member sparse set costs
  /// 32k bits vs. n bits dense, so sparse wins exactly when k < n/32.
  static constexpr double kDefaultSparsityThreshold = 1.0 / 32.0;

  /// Creates an empty collection over a universe of \p universe_size.
  /// Sets with density (|S|/n) strictly below \p sparsity_threshold are
  /// stored sparsely; pass 0.0 to force dense storage, 1.1 to force
  /// sparse storage. With a non-null \p arena, all internal storage —
  /// slot table and set payloads — bump-allocates there; incoming sets
  /// whose buffers live elsewhere are re-homed on insertion.
  explicit SetSystem(std::size_t universe_size = 0,
                     double sparsity_threshold = kDefaultSparsityThreshold,
                     MonotonicArena* arena = nullptr)
      : universe_size_(universe_size),
        sparsity_threshold_(sparsity_threshold),
        arena_(arena),
        slots_(ArenaAllocator<Slot>(arena)),
        dense_(ArenaAllocator<DynamicBitset>(arena)),
        sparse_(ArenaAllocator<SparseSet>(arena)) {}

  /// The arena backing this system's storage (null = heap).
  MonotonicArena* arena() const { return arena_; }

  /// Appends \p set; returns its SetId. CHECK-fails (all build modes) if
  /// the set's universe size mismatches the system's.
  SetId AddSet(DynamicBitset set);

  /// Appends an already-sparse set, re-deciding the representation under
  /// this system's threshold (adopted without conversion when it stays
  /// sparse — the fast path for sparse-emitting producers such as
  /// SubUniverse::ProjectAdaptive). CHECK-fails on universe mismatch.
  SetId AddSet(SparseSet set);

  /// Appends a set given by its member elements (need not be sorted).
  /// CHECK-fails on out-of-universe elements. Builds the sparse
  /// representation directly when the set qualifies — no n-bit
  /// intermediate, so ingesting a sparse instance is O(incidences).
  SetId AddSetFromIndices(std::span<const ElementId> indices);

  /// Braced-list convenience (tests, hand-built instances): spans do not
  /// bind to initializer lists directly.
  SetId AddSetFromIndices(std::initializer_list<ElementId> indices) {
    return AddSetFromIndices(
        std::span<const ElementId>(indices.begin(), indices.size()));
  }

  /// Appends a copy of the viewed set, re-deciding the representation
  /// under this system's threshold.
  SetId AddSetFromView(SetView view);

  /// Universe size n.
  std::size_t universe_size() const { return universe_size_; }

  /// Number of sets m.
  std::size_t num_sets() const { return slots_.size(); }

  /// A view of the \p id-th set. Precondition: id < num_sets(). The view
  /// is invalidated by the next AddSet* call (storage may grow). Inline:
  /// it sits in every per-item scan over an in-memory instance.
  SetView set(SetId id) const {
    STREAMSC_DCHECK(id < slots_.size());
    const Slot& slot = slots_[id];
    if (slot.rep == Rep::kDense) return SetView(dense_[slot.index]);
    return SetView(sparse_[slot.index]);
  }

  /// True iff the \p id-th set is stored sparsely.
  bool IsSparse(SetId id) const;

  /// Stored bytes of the \p id-th set (its representation's ByteSize).
  Bytes SetBytes(SetId id) const { return set(id).ByteSize(); }

  /// Per-representation memory report.
  struct Memory {
    Bytes dense_bytes = 0;        ///< Total bytes of dense-stored sets.
    Bytes sparse_bytes = 0;       ///< Total bytes of sparse-stored sets.
    std::size_t dense_sets = 0;   ///< Number of dense-stored sets.
    std::size_t sparse_sets = 0;  ///< Number of sparse-stored sets.

    Bytes total_bytes() const { return dense_bytes + sparse_bytes; }
  };

  /// Reports stored bytes and set counts for both representations.
  Memory MemoryUsage() const;

  /// Union of the sets with the given ids, allocated from \p alloc.
  DynamicBitset UnionOf(std::span<const SetId> ids,
                        DynamicBitset::Allocator alloc = {}) const;

  /// Union of every set in the system, allocated from \p alloc.
  DynamicBitset UnionAll(DynamicBitset::Allocator alloc = {}) const;

  /// Number of universe elements covered by the given ids. (The n-bit
  /// union intermediate stages in the calling thread's scratch arena.)
  Count CoverageOf(std::span<const SetId> ids) const;

  /// True iff the given ids cover the whole universe. (Scratch-staged,
  /// like CoverageOf.)
  bool IsFeasibleCover(std::span<const SetId> ids) const;

  /// Braced-list conveniences (tests, hand-built queries).
  DynamicBitset UnionOf(std::initializer_list<SetId> ids,
                        DynamicBitset::Allocator alloc = {}) const {
    return UnionOf(std::span<const SetId>(ids.begin(), ids.size()), alloc);
  }
  Count CoverageOf(std::initializer_list<SetId> ids) const {
    return CoverageOf(std::span<const SetId>(ids.begin(), ids.size()));
  }
  bool IsFeasibleCover(std::initializer_list<SetId> ids) const {
    return IsFeasibleCover(std::span<const SetId>(ids.begin(), ids.size()));
  }

  /// True iff some subcollection covers the universe (i.e., UnionAll() is
  /// everything) — precondition for set cover feasibility.
  bool IsCoverable() const;

  /// Checks internal consistency (set sizes match the universe).
  Status Validate() const;

  /// Total number of (set, element) incidences — the paper's "input size
  /// mn" is the dense analogue; this is the sparse analogue.
  Count TotalIncidences() const;

  /// Short human-readable summary like "SetSystem(n=100, m=20)".
  std::string DebugString() const;

 private:
  enum class Rep : std::uint8_t { kDense, kSparse };

  struct Slot {
    Rep rep;
    std::uint32_t index;  // into dense_ or sparse_
  };

  // True iff a set with \p count members should be stored sparsely.
  bool WantsSparse(Count count) const;

  SetId PushDense(DynamicBitset set);
  SetId PushSparse(SparseSet set);

  std::size_t universe_size_;
  double sparsity_threshold_;
  MonotonicArena* arena_ = nullptr;
  ArenaVector<Slot> slots_;
  ArenaVector<DynamicBitset> dense_;
  ArenaVector<SparseSet> sparse_;
};

/// A set cover / max coverage solution: set ids plus bookkeeping helpers.
/// Arena-aware: solvers build it on the per-run arena (moves carry the
/// arena; copies land on the heap, so escaping a solution past the run is
/// an explicit heap copy).
struct Solution {
  ArenaVector<SetId> chosen;

  Solution() = default;
  explicit Solution(ArenaAllocator<SetId> alloc) : chosen(alloc) {}
  explicit Solution(MonotonicArena* arena)
      : chosen(ArenaAllocator<SetId>(arena)) {}
  /// Heap-backed braced-list construction (tests, hand-built solutions).
  Solution(std::initializer_list<SetId> ids) : chosen(ids) {}

  std::size_t size() const { return chosen.size(); }
  bool empty() const { return chosen.empty(); }
};

}  // namespace streamsc

#endif  // STREAMSC_INSTANCE_SET_SYSTEM_H_
