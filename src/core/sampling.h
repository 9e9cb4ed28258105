#ifndef STREAMSC_CORE_SAMPLING_H_
#define STREAMSC_CORE_SAMPLING_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "instance/set_system.h"
#include "stream/engine_context.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/random.h"
#include "util/set_view.h"
#include "util/sparse_set.h"
#include "util/word_kernels.h"

/// \file sampling.h
/// Element-sampling machinery (Lemma 3.12 of the paper): a sampled
/// sub-universe with compact re-indexing, so stored projections use bits
/// proportional to the *sample* size rather than n.
///
/// Projection is the per-pass hot path (every stored set crosses it once
/// per sampling pass), so SubUniverse precomputes a word-level gather
/// plan: for each universe word containing sampled elements, a (source
/// word, sampled-bit mask, destination bit) block. Projecting a dense set
/// is then one extract-bits op per touched word instead of one Test/Set
/// round-trip per sampled element; sparse sets project in O(k) id
/// lookups.

namespace streamsc {

/// A projection result in its natural representation: dense sources gather
/// into a DynamicBitset, sparse sources re-index straight into a SparseSet
/// (no n-bit intermediate for SetSystem to re-sparsify).
using ProjectedSet = std::variant<DynamicBitset, SparseSet>;

/// Moves a projection into \p system (dispatching to the matching AddSet
/// overload) and returns the new SetId.
SetId StoreProjection(SetSystem& system, ProjectedSet projection);

/// A borrowed view of a projection (for comparisons and read-only use).
SetView ViewOf(const ProjectedSet& projection);

/// A sampled subset of the universe with a dense re-indexing
/// {sampled elements} -> [0, sample_size).
///
/// Arena-aware: the constructor allocator backs the gather plan and rank
/// structure, and every projection takes an allocator for its result
/// (heap by default, so read-only callers stay unchanged). The sampling
/// solvers bracket a SubUniverse per guess on the thread-local table
/// arena.
class SubUniverse {
 public:
  /// Builds the sub-universe consisting of the members of \p sampled
  /// (a bitset over the full universe [n]), allocating the re-indexing
  /// structures from \p alloc.
  explicit SubUniverse(const DynamicBitset& sampled,
                       ArenaAllocator<ElementId> alloc = {});

  /// Number of sampled elements.
  std::size_t size() const { return sample_to_full_.size(); }

  /// Full-universe size this sample came from.
  std::size_t full_size() const { return full_size_; }

  /// Projects a full-universe set onto the sample (dense indexing): dense
  /// sets go through the word gather, sparse sets through per-member
  /// re-indexing. Always emits a dense result, allocated from \p alloc; see
  /// ProjectAdaptive for the representation-preserving variant.
  DynamicBitset Project(SetView full_set,
                        DynamicBitset::Allocator alloc = {}) const;

  /// Projects onto the sample, keeping the source's representation: dense
  /// sources emit a DynamicBitset via the word gather, sparse sources emit
  /// a SparseSet directly in O(k) — skipping the dense intermediate
  /// entirely, so a stored sparse projection never touches O(sample_size)
  /// memory. The result is
  /// allocated from \p alloc (the engine's sharded TransformPass passes
  /// the worker-scratch binding here).
  ProjectedSet ProjectAdaptive(SetView full_set,
                               ArenaAllocator<ElementId> alloc = {}) const;

  /// Full-universe id of sampled element \p i.
  ElementId ToFull(std::size_t i) const { return sample_to_full_[i]; }

 private:
  std::size_t full_size_;
  ArenaVector<ElementId> sample_to_full_;
  // Rank structure for full id -> sample id: the sampled bits per
  // universe word plus the number of sampled elements before each word.
  // ~n/8 + n/16 bytes total, an order of magnitude smaller than a
  // per-element map — the sparse projection path is lookup-table-miss
  // bound, so the working set matters more than the op count.
  // RankMembers (util/word_kernels.h) reads the pair to re-index a sparse
  // set, and the gather plan holds one GatherBlock per non-empty word.
  ArenaVector<DynamicBitset::Word> sampled_words_;
  ArenaVector<std::uint32_t> word_rank_;
  ArenaVector<GatherBlock> gather_;
};

/// The projections one sampling pass stored: set pid of \p sets is the
/// projection of the stream set \p ids[pid].
struct StoredProjections {
  SetSystem sets;
  ArenaVector<SetId> ids;
};

/// One pass storing every streamed set's projection S_i ∩ sample onto
/// \p sub. Workers project into their own scratch; the commit re-homes
/// each projection into a SetSystem on \p arena (null = heap), appends
/// its stream id to a vector on \p id_alloc, and charges both to \p ctx's
/// `projections` space category.
StoredProjections StoreProjectionPass(EngineContext& ctx,
                                      const SubUniverse& sub,
                                      MonotonicArena* arena,
                                      ArenaAllocator<SetId> id_alloc);

/// Builds the Lemma 3.12 sample of \p universe: each element kept
/// independently with probability \p rate. \p rate is clamped to [0, 1]
/// (NaN treated as 0): rate <= 0 yields the empty set, rate >= 1 the
/// whole \p universe. The result is allocated from \p alloc.
DynamicBitset SampleElements(const DynamicBitset& universe, double rate,
                             Rng& rng, DynamicBitset::Allocator alloc = {});

}  // namespace streamsc

#endif  // STREAMSC_CORE_SAMPLING_H_
