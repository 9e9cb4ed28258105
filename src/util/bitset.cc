#include "util/bitset.h"
#include "util/check.h"
#include "util/set_span.h"

#include <algorithm>
#include <bit>

namespace streamsc {

DynamicBitset DynamicBitset::FromIndices(std::size_t size,
                                         std::span<const ElementId> indices,
                                         Allocator alloc) {
  DynamicBitset bs(size, alloc);
  for (ElementId i : indices) bs.Set(i);
  return bs;
}

DynamicBitset DynamicBitset::Full(std::size_t size, Allocator alloc) {
  DynamicBitset bs(size, alloc);
  bs.Fill();
  return bs;
}

void DynamicBitset::Clear() { std::fill(words_.begin(), words_.end(), 0); }

void DynamicBitset::Fill() {
  std::fill(words_.begin(), words_.end(), ~Word{0});
  TrimTail();
}

void DynamicBitset::Complement() {
  for (Word& w : words_) w = ~w;
  TrimTail();
}

DynamicBitset DynamicBitset::Difference(const DynamicBitset& other) const {
  DynamicBitset out = *this;
  out.AndNot(other);
  return out;
}

ElementId DynamicBitset::FindFirst() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return static_cast<ElementId>(w * kBitsPerWord +
                                    std::countr_zero(words_[w]));
    }
  }
  return kInvalidElementId;
}

ElementId DynamicBitset::FindNext(std::size_t i) const {
  if (i + 1 >= size_) return kInvalidElementId;
  std::size_t start = i + 1;
  std::size_t w = start / kBitsPerWord;
  Word word = words_[w] & (~Word{0} << (start % kBitsPerWord));
  while (true) {
    if (word != 0) {
      return static_cast<ElementId>(w * kBitsPerWord + std::countr_zero(word));
    }
    ++w;
    if (w >= words_.size()) return kInvalidElementId;
    word = words_[w];
  }
}

std::vector<ElementId> DynamicBitset::ToIndices() const {
  return DenseSpan(*this).ToIndices();
}

std::string DynamicBitset::ToString() const {
  return DenseSpan(*this).ToString();
}

std::uint64_t DynamicBitset::Hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  for (Word w : words_) {
    h ^= w;
    h *= 1099511628211ull;  // FNV prime.
  }
  h ^= size_;
  h *= 1099511628211ull;
  return h;
}

void DynamicBitset::TrimTail() {
  const std::size_t tail = size_ % kBitsPerWord;
  if (!words_.empty() && tail != 0) {
    words_.back() &= (Word{1} << tail) - 1;
  }
}

}  // namespace streamsc
