#include "util/bitset.h"
#include "util/check.h"
#include "util/word_kernels.h"

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

Count DynamicBitset::CountSet() const {
  return PopcountWords(words_.data(), words_.size());
}

bool DynamicBitset::None() const {
  for (Word w : words_) {
    if (w != 0) return false;
  }
  return true;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  STREAMSC_DCHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  STREAMSC_DCHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::AndNot(const DynamicBitset& other) {
  STREAMSC_DCHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
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

Count DynamicBitset::CountAnd(const DynamicBitset& other) const {
  STREAMSC_DCHECK(size_ == other.size_);
  return CountAndWords(words_.data(), other.words_.data(), words_.size());
}

Count DynamicBitset::CountAndNot(const DynamicBitset& other) const {
  STREAMSC_DCHECK(size_ == other.size_);
  return CountAndNotWords(words_.data(), other.words_.data(), words_.size());
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  STREAMSC_DCHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool DynamicBitset::IsSubsetOf(const DynamicBitset& other) const {
  STREAMSC_DCHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
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
  std::vector<ElementId> out;
  out.reserve(static_cast<std::size_t>(CountSet()));
  ForEach([&out](ElementId e) { out.push_back(e); });
  return out;
}

Count DynamicBitset::HammingDistance(const DynamicBitset& other) const {
  STREAMSC_DCHECK(size_ == other.size_);
  return CountXorWords(words_.data(), other.words_.data(), words_.size());
}

std::string DynamicBitset::ToString() const {
  std::string out = "{";
  bool first = true;
  ForEach([&](ElementId e) {
    if (!first) out += ", ";
    out += std::to_string(e);
    first = false;
  });
  out += "}";
  return out;
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
