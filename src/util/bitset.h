#ifndef STREAMSC_UTIL_BITSET_H_
#define STREAMSC_UTIL_BITSET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/check.h"
#include "util/common.h"
#include "util/word_kernels.h"

/// \file bitset.h
/// DynamicBitset: a fixed-universe bit vector used to represent subsets of
/// the universe [n]. This is the core data representation for sets in the
/// set cover / maximum coverage machinery, so it favours tight loops
/// (popcount-based counting, word-wise boolean algebra) over generality.
/// The word loops themselves live once, in util/word_kernels, shared with
/// the borrowed DenseSpan (util/set_span.h).

namespace streamsc {

/// A set over a fixed universe {0, ..., size()-1}, stored as packed bits.
///
/// Copyable and movable. All binary operations require equal sizes
/// (checked with assert in debug builds).
///
/// Storage is arena-aware: every constructor takes an optional
/// ArenaAllocator, so per-run temporaries bump-allocate while
/// default-constructed bitsets keep heap semantics. Moves carry the arena
/// with the buffer; plain copies land on the heap (re-home explicitly via
/// the clone constructor).
class DynamicBitset {
 public:
  using Word = std::uint64_t;
  using Allocator = ArenaAllocator<Word>;
  static constexpr std::size_t kBitsPerWord = 64;

  /// Creates an empty (all-zero) set over a universe of \p size elements.
  explicit DynamicBitset(std::size_t size = 0, Allocator alloc = {})
      : size_(size),
        words_((size + kBitsPerWord - 1) / kBitsPerWord, 0, alloc) {}

  /// Clone with an explicit allocator (the re-homing copy: arena -> arena,
  /// arena -> heap, heap -> arena are all spelled the same way).
  DynamicBitset(const DynamicBitset& other, Allocator alloc)
      : size_(other.size_),
        words_(other.words_.begin(), other.words_.end(), alloc) {}

  DynamicBitset(const DynamicBitset&) = default;
  DynamicBitset(DynamicBitset&&) noexcept = default;
  DynamicBitset& operator=(const DynamicBitset&) = default;
  DynamicBitset& operator=(DynamicBitset&&) = default;

  /// Builds a set over [size) containing exactly \p indices.
  static DynamicBitset FromIndices(std::size_t size,
                                   std::span<const ElementId> indices,
                                   Allocator alloc = {});

  /// Builds the full set {0, ..., size-1}.
  static DynamicBitset Full(std::size_t size, Allocator alloc = {});

  /// The allocator backing the words (heap-bound when default-built).
  Allocator get_allocator() const { return words_.get_allocator(); }

  /// Universe size (number of addressable bits).
  std::size_t size() const { return size_; }

  /// True iff the universe is empty (size() == 0).
  bool empty_universe() const { return size_ == 0; }

  /// Inserts element \p i.
  void Set(std::size_t i) {
    STREAMSC_DCHECK(i < size_);
    words_[i / kBitsPerWord] |= Word{1} << (i % kBitsPerWord);
  }

  /// Removes element \p i.
  void Reset(std::size_t i) {
    STREAMSC_DCHECK(i < size_);
    words_[i / kBitsPerWord] &= ~(Word{1} << (i % kBitsPerWord));
  }

  /// Membership test.
  bool Test(std::size_t i) const {
    STREAMSC_DCHECK(i < size_);
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
  }

  /// Removes all elements.
  void Clear();

  /// Inserts every universe element.
  void Fill();

  /// Number of elements in the set (popcount).
  Count CountSet() const { return PopcountWords(words_.data(), words_.size()); }

  /// True iff the set is empty.
  bool None() const { return NoneWords(words_.data(), words_.size()); }

  /// True iff the set equals the whole universe.
  bool All() const { return CountSet() == size_; }

  /// In-place union: *this |= other.
  DynamicBitset& operator|=(const DynamicBitset& other) {
    STREAMSC_DCHECK(size_ == other.size_);
    OrWords(words_.data(), other.words_.data(), words_.size());
    return *this;
  }

  /// In-place intersection: *this &= other.
  DynamicBitset& operator&=(const DynamicBitset& other) {
    STREAMSC_DCHECK(size_ == other.size_);
    AndWords(words_.data(), other.words_.data(), words_.size());
    return *this;
  }

  /// In-place difference: *this \= other.
  DynamicBitset& AndNot(const DynamicBitset& other) {
    STREAMSC_DCHECK(size_ == other.size_);
    AndNotWords(words_.data(), other.words_.data(), words_.size());
    return *this;
  }

  /// In-place complement (within the universe).
  void Complement();

  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }
  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }

  /// Returns *this \ other without modifying either operand.
  DynamicBitset Difference(const DynamicBitset& other) const;

  /// |*this & other| computed without allocating.
  Count CountAnd(const DynamicBitset& other) const {
    STREAMSC_DCHECK(size_ == other.size_);
    return CountAndWords(words_.data(), other.words_.data(), words_.size());
  }

  /// |*this \ other| computed without allocating.
  Count CountAndNot(const DynamicBitset& other) const {
    STREAMSC_DCHECK(size_ == other.size_);
    return CountAndNotWords(words_.data(), other.words_.data(),
                            words_.size());
  }

  /// True iff the two sets share at least one element.
  bool Intersects(const DynamicBitset& other) const {
    STREAMSC_DCHECK(size_ == other.size_);
    return IntersectsWords(words_.data(), other.words_.data(), words_.size());
  }

  /// True iff *this ⊆ other.
  bool IsSubsetOf(const DynamicBitset& other) const {
    STREAMSC_DCHECK(size_ == other.size_);
    return IsSubsetWords(words_.data(), other.words_.data(), words_.size());
  }

  /// Index of the smallest element, or kInvalidElementId if empty.
  ElementId FindFirst() const;

  /// Index of the smallest element strictly greater than \p i, or
  /// kInvalidElementId if none.
  ElementId FindNext(std::size_t i) const;

  /// All member elements in increasing order.
  std::vector<ElementId> ToIndices() const;

  /// Appends the member elements (increasing order) to any push_back-able
  /// container — the allocation-free alternative to ToIndices for
  /// arena-backed consumers.
  template <typename Vec>
  void AppendIndicesInto(Vec& out) const {
    ForEach([&out](ElementId e) { out.push_back(e); });
  }

  /// Hamming distance |*this Δ other| (symmetric difference size).
  Count HammingDistance(const DynamicBitset& other) const {
    STREAMSC_DCHECK(size_ == other.size_);
    return CountXorWords(words_.data(), other.words_.data(), words_.size());
  }

  /// Logical size of this bitset in bytes (for space accounting):
  /// one bit per universe element, rounded up to whole words.
  Bytes ByteSize() const { return words_.size() * sizeof(Word); }

  /// Number of backing 64-bit words (word-level fast paths, e.g. the
  /// SubUniverse projection gather).
  std::size_t WordCount() const { return words_.size(); }

  /// Contiguous backing words (read-only; for word-level bulk consumers
  /// like the sscb1 writer and the DenseSpan / SetView a bitset hands out).
  /// Valid while the bitset is alive and not assigned to: a copy or move
  /// assignment may replace the buffer.
  const Word* WordData() const { return words_.data(); }

  /// Writable backing words, for the word kernels that update a bitset
  /// from a borrowed span. The caller must preserve the tail invariant:
  /// no bits at positions >= size().
  Word* MutableWordData() { return words_.data(); }

  /// "{0, 3, 7}" style debug rendering.
  std::string ToString() const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// 64-bit content hash (FNV-1a over words); suitable for hash maps.
  std::uint64_t Hash() const;

  /// Calls \p fn(ElementId) for every member element in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachSetBit(words_.data(), words_.size(), static_cast<Fn&&>(fn));
  }

 private:
  // Zeroes bits beyond size_ in the last word (invariant after Complement /
  // Fill).
  void TrimTail();

  std::size_t size_;
  ArenaVector<Word> words_;
};

}  // namespace streamsc

#endif  // STREAMSC_UTIL_BITSET_H_
