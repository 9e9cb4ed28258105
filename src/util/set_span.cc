#include "util/set_span.h"

#include <algorithm>

#include "util/check.h"

namespace streamsc {
namespace {

// The one "{0, 3, 7}" renderer, over either span's ForEach.
template <typename Span>
std::string RenderMembers(const Span& span) {
  std::string out = "{";
  bool first = true;
  span.ForEach([&](ElementId e) {
    if (!first) out += ", ";
    out += std::to_string(e);
    first = false;
  });
  out += "}";
  return out;
}

}  // namespace

// ---- DenseSpan -------------------------------------------------------------

std::vector<ElementId> DenseSpan::ToIndices() const {
  std::vector<ElementId> out;
  out.reserve(static_cast<std::size_t>(CountSet()));
  ForEach([&out](ElementId e) { out.push_back(e); });
  return out;
}

std::string DenseSpan::ToString() const { return RenderMembers(*this); }

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
  return count_ - CountAnd(other);
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

DynamicBitset SparseSpan::ToBitset(DynamicBitset::Allocator alloc) const {
  DynamicBitset out(size_, alloc);
  OrInto(out);
  return out;
}

std::string SparseSpan::ToString() const { return RenderMembers(*this); }

}  // namespace streamsc
