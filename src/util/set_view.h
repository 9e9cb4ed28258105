#ifndef STREAMSC_UTIL_SET_VIEW_H_
#define STREAMSC_UTIL_SET_VIEW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"
#include "util/common.h"
#include "util/set_span.h"
#include "util/sparse_set.h"

/// \file set_view.h
/// SetView: a non-owning, representation-agnostic view of one set.
///
/// The hybrid set substrate keeps each set either dense (n bits) or sparse
/// (sorted member ids), and SetView is the uniform read API the algorithms
/// consume. A view is a two-word tagged value holding exactly one of the
/// two borrowed representations of util/set_span.h: a DenseSpan or a
/// SparseSpan. The owning DynamicBitset and SparseSet convert to a view by
/// lending their buffer, and the mmap-backed instance store serves spans
/// straight out of a mapped file, so a pruning scan or projection pass runs
/// at the cost of the *representation* (n/64 word ops dense, k element ops
/// sparse) without the algorithm knowing where the set lives.
///
/// Views are pass-by-value. A view borrows a buffer: it is invalidated by
/// anything that frees or replaces that buffer — destroying or assigning
/// to the owning set (a move assignment installs a different buffer; the
/// view does not follow it), SetSystem::AddSet growing storage, or an
/// MmapSetStream being destroyed.

namespace streamsc {

/// A borrowed view of a dense or sparse set. Cheap to copy.
class SetView {
 public:
  /// An invalid (detached) view; valid() is false.
  SetView() = default;

  /// Views a borrowed dense word span (e.g. an mmap'd sscb1 payload).
  SetView(const DenseSpan& span)  // NOLINT
      : SetView(span.WordData(), Rep::kDense, span.size(), 0) {}

  /// Views a borrowed sorted-id span (e.g. an mmap'd sscb1 payload).
  SetView(const SparseSpan& span)  // NOLINT
      : SetView(span.elements(), Rep::kSparse, span.size(), span.CountSet()) {}

  /// Views a dense set's word buffer. Implicit: any DynamicBitset is usable
  /// as a view.
  SetView(const DynamicBitset& dense)  // NOLINT
      : SetView(DenseSpan(dense)) {}

  /// Views a sparse set's id buffer.
  SetView(const SparseSet& sparse)  // NOLINT
      : SetView(sparse.span()) {}

  /// True iff the view points at a set.
  bool valid() const { return rep() != Rep::kNone; }

  /// True iff the view holds the dense (word) representation.
  bool is_dense_rep() const { return rep() == Rep::kDense; }

  /// The dense representation. Precondition: is_dense_rep().
  DenseSpan dense_span() const {
    STREAMSC_DCHECK(rep() == Rep::kDense);
    return DenseSpan(static_cast<const DenseSpan::Word*>(data()), size_);
  }

  /// The sparse representation. Precondition: valid() && !is_dense_rep().
  SparseSpan sparse_span() const {
    STREAMSC_DCHECK(rep() == Rep::kSparse);
    return SparseSpan(static_cast<const ElementId*>(data()), count_, size_);
  }

 private:
  // Invokes \p fn with the held span (a DenseSpan or a SparseSpan) and
  // returns its result. Precondition: valid(). Defined before its uses so
  // the deduced return type is available to the methods below.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    STREAMSC_DCHECK(valid());
    if (rep() == Rep::kSparse) return fn(sparse_span());
    return fn(dense_span());
  }

 public:
  /// Universe size of the viewed set.
  std::size_t size() const { return size_; }

  /// Number of elements in the set.
  Count CountSet() const {
    return Visit([](const auto& s) { return s.CountSet(); });
  }

  /// True iff the set is empty.
  bool None() const {
    return Visit([](const auto& s) { return s.None(); });
  }

  /// True iff the set equals the whole universe.
  bool All() const {
    return Visit([](const auto& s) { return s.All(); });
  }

  /// Membership test.
  bool Test(std::size_t i) const {
    return Visit([i](const auto& s) { return s.Test(i); });
  }

  /// |*this & other|.
  Count CountAnd(const DynamicBitset& other) const {
    return Visit([&other](const auto& s) { return s.CountAnd(other); });
  }

  /// |*this \ other|.
  Count CountAndNot(const DynamicBitset& other) const {
    return Visit([&other](const auto& s) { return s.CountAndNot(other); });
  }

  /// True iff the two sets share at least one element.
  bool Intersects(const DynamicBitset& other) const {
    return Visit([&other](const auto& s) { return s.Intersects(other); });
  }

  /// True iff *this ⊆ other.
  bool IsSubsetOf(const DynamicBitset& other) const {
    return Visit([&other](const auto& s) { return s.IsSubsetOf(other); });
  }

  /// target \= *this (clears this set's members in \p target).
  void AndNotInto(DynamicBitset& target) const {
    Visit([&target](const auto& s) { s.AndNotInto(target); });
  }

  /// target |= *this.
  void OrInto(DynamicBitset& target) const {
    Visit([&target](const auto& s) { s.OrInto(target); });
  }

  /// Materializes a dense copy of the viewed set into \p alloc (heap by
  /// default; the re-homing form for every representation, at that
  /// representation's scan cost).
  DynamicBitset ToDense(DynamicBitset::Allocator alloc = {}) const {
    return Visit([alloc](const auto& s) { return s.ToBitset(alloc); });
  }

  /// Materializes a sparse copy into \p alloc. The viewed members are
  /// emitted in increasing order, so the sorted-unchecked adoption holds
  /// by construction.
  SparseSet ToSparse(SparseSet::Allocator alloc) const {
    ArenaVector<ElementId> ids(alloc);
    ids.reserve(static_cast<std::size_t>(CountSet()));
    AppendIndicesInto(ids);
    return SparseSet::FromSortedIndicesUnchecked(size(), std::move(ids));
  }

  /// All member elements in increasing order.
  std::vector<ElementId> ToIndices() const {
    return Visit([](const auto& s) { return s.ToIndices(); });
  }

  /// Appends the member elements (increasing order) to any push_back-able
  /// container — the allocation-free alternative to ToIndices.
  template <typename Vec>
  void AppendIndicesInto(Vec& out) const {
    ForEach([&out](ElementId e) { out.push_back(e); });
  }

  /// Logical size in bytes of the *viewed representation*.
  Bytes ByteSize() const {
    return Visit([](const auto& s) { return s.ByteSize(); });
  }

  /// "{0, 3, 7}" style debug rendering.
  std::string ToString() const {
    return Visit([](const auto& s) { return s.ToString(); });
  }

  /// Calls \p fn(ElementId) for every member element in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Visit([&fn](const auto& s) { s.ForEach(fn); });
  }

  /// Content equality across representations (same universe, same
  /// members). Invalid views compare equal only to invalid views.
  friend bool operator==(const SetView& a, const SetView& b);

 private:
  // The representation lives in the two low bits of the data pointer: ids
  // are 4-byte and words 8-byte aligned, so those bits are always zero.
  // Universe sizes and member counts fit 32 bits because ElementId does.
  enum class Rep : std::uintptr_t { kNone = 0, kDense = 1, kSparse = 2 };
  static constexpr std::uintptr_t kRepMask = 3;

  SetView(const void* data, Rep rep, std::size_t size, Count count)
      : tagged_(reinterpret_cast<std::uintptr_t>(data) |
                static_cast<std::uintptr_t>(rep)),
        size_(static_cast<std::uint32_t>(size)),
        count_(static_cast<std::uint32_t>(count)) {
    STREAMSC_DCHECK((reinterpret_cast<std::uintptr_t>(data) & kRepMask) == 0);
    STREAMSC_DCHECK(size <= UINT32_MAX && count <= UINT32_MAX);
  }

  Rep rep() const { return static_cast<Rep>(tagged_ & kRepMask); }
  const void* data() const {
    return reinterpret_cast<const void*>(tagged_ & ~kRepMask);
  }

  std::uintptr_t tagged_ = 0;  // data pointer | Rep
  std::uint32_t size_ = 0;     // universe size
  std::uint32_t count_ = 0;    // member count (kSparse only)
};

// Views sit in every stream item and are returned by value on the
// per-item path (SetStream::ItemAt); two words keep both in registers.
static_assert(sizeof(SetView) <= 16, "SetView must stay within 16 bytes");

}  // namespace streamsc

#endif  // STREAMSC_UTIL_SET_VIEW_H_
