#include "util/check.h"
#include "util/set_span.h"
#include "util/word_kernels.h"

#include <algorithm>
#include <sstream>

namespace streamsc {
namespace {

using Word = DynamicBitset::Word;

std::string RenderIndices(const std::vector<ElementId>& ids) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ", ";
    out << ids[i];
  }
  out << '}';
  return out.str();
}

}  // namespace

// ---- DenseSpan -------------------------------------------------------------

Count DenseSpan::CountSet() const {
  return PopcountWords(words_, WordCount());
}

bool DenseSpan::None() const {
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) {
    if (words_[w] != 0) return false;
  }
  return true;
}

Count DenseSpan::CountAnd(const DynamicBitset& other) const {
  STREAMSC_DCHECK(other.size() == size_);
  return CountAndWords(words_, other.WordData(), WordCount());
}

Count DenseSpan::CountAndNot(const DynamicBitset& other) const {
  STREAMSC_DCHECK(other.size() == size_);
  return CountAndNotWords(words_, other.WordData(), WordCount());
}

bool DenseSpan::Intersects(const DynamicBitset& other) const {
  STREAMSC_DCHECK(other.size() == size_);
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) {
    if ((words_[w] & other.GetWord(w)) != 0) return true;
  }
  return false;
}

bool DenseSpan::IsSubsetOf(const DynamicBitset& other) const {
  STREAMSC_DCHECK(other.size() == size_);
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) {
    if ((words_[w] & ~other.GetWord(w)) != 0) return false;
  }
  return true;
}

void DenseSpan::AndNotInto(DynamicBitset& target) const {
  STREAMSC_DCHECK(target.size() == size_);
  const std::size_t words = WordCount();
  // Target tail bits are already zero, so ANDing with ~word keeps them so.
  for (std::size_t w = 0; w < words; ++w) target.AndWord(w, ~words_[w]);
}

void DenseSpan::OrInto(DynamicBitset& target) const {
  STREAMSC_DCHECK(target.size() == size_);
  const std::size_t words = WordCount();
  // The span's tail invariant (no bits beyond size()) carries over.
  for (std::size_t w = 0; w < words; ++w) target.OrWord(w, words_[w]);
}

DynamicBitset DenseSpan::ToBitset() const {
  DynamicBitset out(size_);
  const std::size_t words = WordCount();
  for (std::size_t w = 0; w < words; ++w) out.OrWord(w, words_[w]);
  return out;
}

std::vector<ElementId> DenseSpan::ToIndices() const {
  std::vector<ElementId> out;
  out.reserve(static_cast<std::size_t>(CountSet()));
  ForEach([&](ElementId e) { out.push_back(e); });
  return out;
}

std::string DenseSpan::ToString() const { return RenderIndices(ToIndices()); }

// ---- SparseSpan ------------------------------------------------------------

bool SparseSpan::Test(std::size_t i) const {
  STREAMSC_DCHECK(i < size_);
  return std::binary_search(elements_, elements_ + count_,
                            static_cast<ElementId>(i));
}

Count SparseSpan::CountAnd(const DynamicBitset& other) const {
  STREAMSC_DCHECK(other.size() == size_);
  Count total = 0;
  for (std::size_t i = 0; i < count_; ++i) total += other.Test(elements_[i]);
  return total;
}

Count SparseSpan::CountAndNot(const DynamicBitset& other) const {
  STREAMSC_DCHECK(other.size() == size_);
  Count total = 0;
  for (std::size_t i = 0; i < count_; ++i) total += !other.Test(elements_[i]);
  return total;
}

bool SparseSpan::Intersects(const DynamicBitset& other) const {
  STREAMSC_DCHECK(other.size() == size_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (other.Test(elements_[i])) return true;
  }
  return false;
}

bool SparseSpan::IsSubsetOf(const DynamicBitset& other) const {
  STREAMSC_DCHECK(other.size() == size_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (!other.Test(elements_[i])) return false;
  }
  return true;
}

void SparseSpan::AndNotInto(DynamicBitset& target) const {
  STREAMSC_DCHECK(target.size() == size_);
  for (std::size_t i = 0; i < count_; ++i) target.Reset(elements_[i]);
}

void SparseSpan::OrInto(DynamicBitset& target) const {
  STREAMSC_DCHECK(target.size() == size_);
  for (std::size_t i = 0; i < count_; ++i) target.Set(elements_[i]);
}

DynamicBitset SparseSpan::ToBitset() const {
  DynamicBitset out(size_);
  for (std::size_t i = 0; i < count_; ++i) out.Set(elements_[i]);
  return out;
}

std::string SparseSpan::ToString() const { return RenderIndices(ToIndices()); }

}  // namespace streamsc
