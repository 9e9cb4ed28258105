#ifndef STREAMSC_UTIL_SET_SPAN_H_
#define STREAMSC_UTIL_SET_SPAN_H_

#include <string>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"
#include "util/common.h"
#include "util/word_kernels.h"

/// \file set_span.h
/// The two borrowed representations of one set, and the only two a
/// SetView (util/set_view.h) can hold:
///
/// * DenseSpan  — a borrowed run of packed 64-bit words (n bits).
/// * SparseSpan — a borrowed run of sorted, duplicate-free member ids.
///
/// Storage that is not heap-resident — most importantly the mmap'd payloads
/// of an sscb1 file (storage/mmap_set_stream.h) — hands these out without
/// copying a byte, and so do the owning sets: a DynamicBitset lends its
/// word buffer (DenseSpan(bitset)) and a SparseSet its id buffer
/// (SparseSet::span()). Each set operation is therefore written once per
/// representation: DenseSpan's are one-liners over util/word_kernels (the
/// loops DynamicBitset shares), SparseSpan's loops live in set_span.cc and
/// SparseSet delegates to them.
///
/// Invariants are the *storage side's* responsibility (they are what
/// MmapSetStream validates at open): a DenseSpan's tail bits beyond size()
/// are zero, a SparseSpan's ids are strictly increasing and < size().

namespace streamsc {

/// A borrowed dense set: ceil(size / 64) packed words. The span does not
/// own the words; they must outlive it.
class DenseSpan {
 public:
  using Word = DynamicBitset::Word;
  static constexpr std::size_t kBitsPerWord = DynamicBitset::kBitsPerWord;

  DenseSpan() = default;

  /// Views \p size bits backed by the words at \p words. Tail bits beyond
  /// \p size must be zero.
  DenseSpan(const Word* words, std::size_t size) : words_(words), size_(size) {
    STREAMSC_DCHECK(size == 0 || words != nullptr);
  }

  /// Borrows \p set's word buffer (valid until \p set is destroyed or
  /// assigned to).
  explicit DenseSpan(const DynamicBitset& set)
      : DenseSpan(set.WordData(), set.size()) {}

  /// Universe size (number of addressable bits).
  std::size_t size() const { return size_; }

  /// Number of backing words.
  std::size_t WordCount() const {
    return (size_ + kBitsPerWord - 1) / kBitsPerWord;
  }

  /// Contiguous backing words (read-only; WordCount() of them).
  const Word* WordData() const { return words_; }

  /// Membership test.
  bool Test(std::size_t i) const {
    STREAMSC_DCHECK(i < size_);
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
  }

  /// Number of elements in the set (popcount over the words).
  Count CountSet() const { return PopcountWords(words_, WordCount()); }

  /// True iff the set is empty.
  bool None() const { return NoneWords(words_, WordCount()); }

  /// True iff the set equals the whole universe.
  bool All() const { return CountSet() == size_; }

  /// |*this & other|.
  Count CountAnd(const DynamicBitset& other) const {
    STREAMSC_DCHECK(other.size() == size_);
    return CountAndWords(words_, other.WordData(), WordCount());
  }

  /// |*this \ other|.
  Count CountAndNot(const DynamicBitset& other) const {
    STREAMSC_DCHECK(other.size() == size_);
    return CountAndNotWords(words_, other.WordData(), WordCount());
  }

  /// True iff the two sets share at least one element.
  bool Intersects(const DynamicBitset& other) const {
    STREAMSC_DCHECK(other.size() == size_);
    return IntersectsWords(words_, other.WordData(), WordCount());
  }

  /// True iff *this ⊆ other.
  bool IsSubsetOf(const DynamicBitset& other) const {
    STREAMSC_DCHECK(other.size() == size_);
    return IsSubsetWords(words_, other.WordData(), WordCount());
  }

  /// target \= *this.
  void AndNotInto(DynamicBitset& target) const {
    STREAMSC_DCHECK(target.size() == size_);
    AndNotWords(target.MutableWordData(), words_, WordCount());
  }

  /// target |= *this. The span's zero tail carries over.
  void OrInto(DynamicBitset& target) const {
    STREAMSC_DCHECK(target.size() == size_);
    OrWords(target.MutableWordData(), words_, WordCount());
  }

  /// Materializes an owning dense copy into \p alloc (heap by default).
  DynamicBitset ToBitset(DynamicBitset::Allocator alloc = {}) const {
    DynamicBitset out(size_, alloc);
    OrInto(out);
    return out;
  }

  /// All member elements in increasing order.
  std::vector<ElementId> ToIndices() const;

  /// Logical size in bytes of the viewed representation.
  Bytes ByteSize() const { return WordCount() * sizeof(Word); }

  /// "{0, 3, 7}" style debug rendering.
  std::string ToString() const;

  /// Calls \p fn(ElementId) for every member element in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachSetBit(words_, WordCount(), static_cast<Fn&&>(fn));
  }

 private:
  const Word* words_ = nullptr;
  std::size_t size_ = 0;
};

/// A borrowed sparse set: \p count sorted, duplicate-free member ids of a
/// universe of \p size elements. The span does not own the ids. The loops
/// here are the only copy of the sparse set operations: SparseSet
/// delegates to them through SparseSet::span().
class SparseSpan {
 public:
  SparseSpan() = default;

  /// Views \p count member ids at \p elements over a universe of
  /// \p size elements. The ids must be strictly increasing and < size.
  SparseSpan(const ElementId* elements, std::size_t count, std::size_t size)
      : elements_(elements), count_(count), size_(size) {
    STREAMSC_DCHECK(count == 0 || elements != nullptr);
  }

  /// Universe size.
  std::size_t size() const { return size_; }

  /// The member ids, sorted ascending.
  const ElementId* elements() const { return elements_; }

  /// Number of elements in the set.
  Count CountSet() const { return count_; }

  /// True iff the set is empty.
  bool None() const { return count_ == 0; }

  /// True iff the set equals the whole universe.
  bool All() const { return count_ == size_; }

  /// Membership test (binary search, O(log k)).
  bool Test(std::size_t i) const;

  /// |*this & other| — O(k) membership probes into \p other.
  Count CountAnd(const DynamicBitset& other) const;

  /// |*this \ other| — O(k) membership probes into \p other.
  Count CountAndNot(const DynamicBitset& other) const;

  /// True iff the two sets share at least one element.
  bool Intersects(const DynamicBitset& other) const;

  /// True iff *this ⊆ other.
  bool IsSubsetOf(const DynamicBitset& other) const;

  /// target \= *this.
  void AndNotInto(DynamicBitset& target) const;

  /// target |= *this.
  void OrInto(DynamicBitset& target) const;

  /// Materializes an owning dense copy into \p alloc (heap by default).
  DynamicBitset ToBitset(DynamicBitset::Allocator alloc = {}) const;

  /// All member elements in increasing order (a copy).
  std::vector<ElementId> ToIndices() const {
    return std::vector<ElementId>(elements_, elements_ + count_);
  }

  /// Logical size in bytes of the viewed representation.
  Bytes ByteSize() const { return count_ * sizeof(ElementId); }

  /// "{0, 3, 7}" style debug rendering.
  std::string ToString() const;

  /// Calls \p fn(ElementId) for every member element in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) fn(elements_[i]);
  }

 private:
  const ElementId* elements_ = nullptr;
  std::size_t count_ = 0;
  std::size_t size_ = 0;
};

}  // namespace streamsc

#endif  // STREAMSC_UTIL_SET_SPAN_H_
