#include "offline/greedy.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "util/bitset.h"
#include "util/check.h"

namespace streamsc {

namespace {

// A heap key packs a set's gain bound into the high half and its inverted
// id into the low half, so one integer comparison orders candidates by
// larger gain, then lower id. A gain never exceeds the universe size,
// which LazyGreedy checks fits the high half.
using Key = std::uint64_t;

Key KeyOf(Count gain, SetId id) {
  return (gain << 32) | static_cast<SetId>(~id);
}
Count GainOf(Key key) { return key >> 32; }
SetId IdOf(Key key) { return ~static_cast<SetId>(key); }

// Restores the max-heap property after heap[0] changed.
void SiftDownRoot(ArenaVector<Key>& heap) {
  const std::size_t size = heap.size();
  const Key key = heap[0];
  std::size_t hole = 0;
  for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size) child += heap[child] < heap[child + 1];
    if (heap[child] <= key) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = key;
}

// Lazy (stale-gain) greedy: covers \p universe with at most \p k picks,
// each the set of maximum marginal gain, lowest id on ties. Keys are upper
// bounds on gains, which only fall, so a root whose re-scored gain still
// equals its key ranks first and is taken; otherwise the root takes its
// new gain and sinks, or leaves the heap once it adds nothing.
Solution LazyGreedy(const SetSystem& system, const DynamicBitset& universe,
                    std::size_t k, ArenaAllocator<SetId> alloc) {
  Solution solution(alloc);
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  STREAMSC_CHECK(universe.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "greedy heap keys hold gains below 2^32");
  DynamicBitset uncovered(universe, DynamicBitset::Allocator(&scratch));
  if (k == 0 || uncovered.None()) return solution;
  ArenaVector<Key> heap{ArenaAllocator<Key>(&scratch)};
  heap.reserve(system.num_sets());
  for (SetId i = 0; i < system.num_sets(); ++i) {
    const Count gain = system.set(i).CountAnd(uncovered);
    if (gain > 0) heap.push_back(KeyOf(gain, i));
  }
  std::make_heap(heap.begin(), heap.end());
  while (!heap.empty()) {
    const SetId id = IdOf(heap[0]);
    const Count gain = system.set(id).CountAnd(uncovered);
    if (gain != GainOf(heap[0]) && gain > 0) {
      heap[0] = KeyOf(gain, id);  // stale key: sink with the new gain
    } else {
      if (gain > 0) {  // the key held: no other set can beat this one
        solution.chosen.push_back(id);
        system.set(id).AndNotInto(uncovered);
        if (solution.size() == k || uncovered.None()) break;
      }
      heap[0] = heap.back();  // taken, or adds nothing: leave the heap
      heap.pop_back();
    }
    if (!heap.empty()) SiftDownRoot(heap);
  }
  return solution;
}

}  // namespace

Solution GreedySetCover(const SetSystem& system, const DynamicBitset& universe,
                        ArenaAllocator<SetId> alloc) {
  return LazyGreedy(system, universe, system.num_sets(), alloc);
}

Solution GreedySetCover(const SetSystem& system, ArenaAllocator<SetId> alloc) {
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  return GreedySetCover(system,
                        DynamicBitset::Full(system.universe_size(),
                                            DynamicBitset::Allocator(&scratch)),
                        alloc);
}

Solution GreedyMaxCoverage(const SetSystem& system,
                           const DynamicBitset& universe, std::size_t k,
                           ArenaAllocator<SetId> alloc) {
  return LazyGreedy(system, universe, k, alloc);
}

Solution GreedyMaxCoverage(const SetSystem& system, std::size_t k,
                           ArenaAllocator<SetId> alloc) {
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  return GreedyMaxCoverage(
      system,
      DynamicBitset::Full(system.universe_size(),
                          DynamicBitset::Allocator(&scratch)),
      k, alloc);
}

}  // namespace streamsc
