#include "util/sparse_set.h"

#include <algorithm>

#include "util/check.h"
#include "util/set_view.h"

namespace streamsc {

SparseSet SparseSet::FromIndices(std::size_t universe_size,
                                 ArenaVector<ElementId> indices) {
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  // Sortedness/uniqueness hold by construction; only the range needs a
  // check, and after sorting one back() probe covers every element.
  STREAMSC_CHECK(indices.empty() || indices.back() < universe_size,
                 "SparseSet element id outside the universe");
  SparseSet out(universe_size);
  out.elements_ = std::move(indices);
  return out;
}

SparseSet SparseSet::FromIndices(std::size_t universe_size,
                                 std::span<const ElementId> indices,
                                 Allocator alloc) {
  return FromIndices(universe_size,
                     ArenaVector<ElementId>(indices.begin(), indices.end(),
                                            alloc));
}

SparseSet SparseSet::FromSortedIndices(std::size_t universe_size,
                                       ArenaVector<ElementId> indices) {
  STREAMSC_CHECK(
      std::is_sorted(indices.begin(), indices.end()) &&
          std::adjacent_find(indices.begin(), indices.end()) == indices.end(),
      "SparseSet indices must be sorted and duplicate-free");
  STREAMSC_CHECK(indices.empty() || indices.back() < universe_size,
                 "SparseSet element id outside the universe");
  SparseSet out(universe_size);
  out.elements_ = std::move(indices);
  return out;
}

SparseSet SparseSet::FromSortedIndicesUnchecked(
    std::size_t universe_size, ArenaVector<ElementId> indices) {
  STREAMSC_DCHECK(std::is_sorted(indices.begin(), indices.end()) &&
         std::adjacent_find(indices.begin(), indices.end()) == indices.end());
  STREAMSC_DCHECK(indices.empty() || indices.back() < universe_size);
  SparseSet out(universe_size);
  out.elements_ = std::move(indices);
  return out;
}

SparseSet SparseSet::FromBitset(const DynamicBitset& dense, Allocator alloc) {
  return SetView(dense).ToSparse(alloc);
}

}  // namespace streamsc
