#ifndef STREAMSC_UTIL_SPARSE_SET_H_
#define STREAMSC_UTIL_SPARSE_SET_H_

#include <span>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/bitset.h"
#include "util/common.h"
#include "util/set_span.h"

/// \file sparse_set.h
/// SparseSet: a subset of a fixed universe [n] stored as a sorted vector
/// of member ids. The memory/speed complement of DynamicBitset: a
/// DynamicBitset always costs n bits and scans in n/64 word operations,
/// while a SparseSet with k members costs 32k bits and scans in k
/// operations — a large win whenever the density k/n is below ~1/32.
/// SetSystem picks between the two per set (see instance/set_system.h);
/// algorithms consume either through SetView (util/set_view.h). The set
/// operations are SparseSpan's (util/set_span.h): a SparseSet lends its id
/// buffer through span() and every query below delegates to it.

namespace streamsc {

/// A set over a fixed universe {0, ..., size()-1}, stored as a sorted,
/// duplicate-free vector of member ids. Immutable after construction
/// (build a new one to change membership). Copyable and movable.
///
/// Arena-aware like DynamicBitset: factories take the member-id payload
/// as an ArenaVector (adopted, allocator and all) or copy from a borrowed
/// span into an explicit allocator; default everything stays on the heap.
class SparseSet {
 public:
  using Allocator = ArenaAllocator<ElementId>;

  /// Creates an empty set over a universe of \p universe_size elements.
  explicit SparseSet(std::size_t universe_size = 0, Allocator alloc = {})
      : size_(universe_size), elements_(alloc) {}

  /// Clone with an explicit allocator (the re-homing copy).
  SparseSet(const SparseSet& other, Allocator alloc)
      : size_(other.size_),
        elements_(other.elements_.begin(), other.elements_.end(), alloc) {}

  SparseSet(const SparseSet&) = default;
  SparseSet(SparseSet&&) noexcept = default;
  SparseSet& operator=(const SparseSet&) = default;
  SparseSet& operator=(SparseSet&&) = default;

  /// Builds a set from arbitrary member ids (sorted and deduplicated
  /// here; the vector is adopted along with its allocator). CHECK-fails
  /// on ids outside the universe.
  static SparseSet FromIndices(std::size_t universe_size,
                               ArenaVector<ElementId> indices);

  /// Convenience overload copying from a borrowed id sequence into
  /// \p alloc.
  static SparseSet FromIndices(std::size_t universe_size,
                               std::span<const ElementId> indices,
                               Allocator alloc = {});

  /// Builds a set from ids that are already sorted and duplicate-free
  /// (adopted without a sort; order and range CHECKed).
  static SparseSet FromSortedIndices(std::size_t universe_size,
                                     ArenaVector<ElementId> indices);

  /// Like FromSortedIndices but trusts the caller (debug-only asserts,
  /// no release-mode scan). Only for ids produced by code that
  /// guarantees order and range *by construction* — e.g. another
  /// representation's ForEach, or SubUniverse's monotone re-indexing —
  /// where re-validating would double the cost of the per-item hot path.
  static SparseSet FromSortedIndicesUnchecked(std::size_t universe_size,
                                              ArenaVector<ElementId> indices);

  /// Converts a dense bitset to sparse form.
  static SparseSet FromBitset(const DynamicBitset& dense, Allocator alloc = {});

  /// The allocator backing the member ids.
  Allocator get_allocator() const { return elements_.get_allocator(); }

  /// Borrows the id buffer (valid until this set is destroyed or assigned
  /// to).
  SparseSpan span() const {
    return SparseSpan(elements_.data(), elements_.size(), size_);
  }

  /// Converts to dense form (into \p alloc; heap by default).
  DynamicBitset ToBitset(DynamicBitset::Allocator alloc = {}) const {
    return span().ToBitset(alloc);
  }

  /// Universe size (matches DynamicBitset::size() semantics).
  std::size_t size() const { return size_; }

  /// Number of elements in the set.
  Count CountSet() const { return elements_.size(); }

  /// True iff the set is empty.
  bool None() const { return elements_.empty(); }

  /// True iff the set equals the whole universe.
  bool All() const { return elements_.size() == size_; }

  /// Membership test (binary search, O(log k)).
  bool Test(std::size_t i) const { return span().Test(i); }

  /// The member ids, sorted ascending.
  const ArenaVector<ElementId>& elements() const { return elements_; }

  /// All member elements in increasing order (a heap copy; see elements()
  /// for the borrowed form).
  std::vector<ElementId> ToIndices() const { return span().ToIndices(); }

  /// |*this & other| — O(k) membership probes into \p other.
  Count CountAnd(const DynamicBitset& other) const {
    return span().CountAnd(other);
  }

  /// |*this \ other| — O(k) membership probes into \p other.
  Count CountAndNot(const DynamicBitset& other) const {
    return span().CountAndNot(other);
  }

  /// True iff the two sets share at least one element.
  bool Intersects(const DynamicBitset& other) const {
    return span().Intersects(other);
  }

  /// True iff *this ⊆ other.
  bool IsSubsetOf(const DynamicBitset& other) const {
    return span().IsSubsetOf(other);
  }

  /// target \= *this (clears this set's members in \p target).
  void AndNotInto(DynamicBitset& target) const { span().AndNotInto(target); }

  /// target |= *this.
  void OrInto(DynamicBitset& target) const { span().OrInto(target); }

  /// Logical size in bytes for space accounting: the member-id payload.
  Bytes ByteSize() const { return span().ByteSize(); }

  /// "{0, 3, 7}" style debug rendering.
  std::string ToString() const { return span().ToString(); }

  /// Calls \p fn(ElementId) for every member element in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    span().ForEach(static_cast<Fn&&>(fn));
  }

  friend bool operator==(const SparseSet& a, const SparseSet& b) {
    return a.size_ == b.size_ && a.elements_ == b.elements_;
  }

 private:
  std::size_t size_ = 0;
  ArenaVector<ElementId> elements_;
};

}  // namespace streamsc

#endif  // STREAMSC_UTIL_SPARSE_SET_H_
