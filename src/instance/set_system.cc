#include "instance/set_system.h"

#include <utility>

#include "util/check.h"

namespace streamsc {

bool SetSystem::WantsSparse(Count count) const {
  return static_cast<double>(count) <
         sparsity_threshold_ * static_cast<double>(universe_size_);
}

SetId SetSystem::PushDense(DynamicBitset set) {
  // Re-home payloads whose buffers live outside this system's storage —
  // including scratch-backed payloads entering a *heap* system: moving
  // one in would smuggle the scratch binding (and its pass-lifetime
  // buffer) into a structure that outlives the pass.
  const ArenaAllocator<DynamicBitset::Word> want{arena_};
  if (!(set.get_allocator() == want)) {
    dense_.emplace_back(set, want);
  } else {
    dense_.push_back(std::move(set));
  }
  slots_.push_back({Rep::kDense, static_cast<std::uint32_t>(dense_.size() - 1)});
  return static_cast<SetId>(slots_.size() - 1);
}

SetId SetSystem::PushSparse(SparseSet set) {
  const ArenaAllocator<ElementId> want{arena_};
  if (!(set.get_allocator() == want)) {
    sparse_.emplace_back(set, want);
  } else {
    sparse_.push_back(std::move(set));
  }
  slots_.push_back(
      {Rep::kSparse, static_cast<std::uint32_t>(sparse_.size() - 1)});
  return static_cast<SetId>(slots_.size() - 1);
}

SetId SetSystem::AddSet(DynamicBitset set) {
  STREAMSC_CHECK(set.size() == universe_size_,
                 "SetSystem::AddSet: set universe size mismatches the system");
  if (WantsSparse(set.CountSet())) {
    return PushSparse(
        SparseSet::FromBitset(set, ArenaAllocator<ElementId>(arena_)));
  }
  return PushDense(std::move(set));
}

SetId SetSystem::AddSet(SparseSet set) {
  STREAMSC_CHECK(set.size() == universe_size_,
                 "SetSystem::AddSet: set universe size mismatches the system");
  if (WantsSparse(set.CountSet())) return PushSparse(std::move(set));
  return PushDense(set.ToBitset(ArenaAllocator<DynamicBitset::Word>(arena_)));
}

SetId SetSystem::AddSetFromIndices(std::span<const ElementId> indices) {
  // Range validation happens inside FromIndices (one post-sort check).
  SparseSet sparse = SparseSet::FromIndices(universe_size_, indices,
                                            ArenaAllocator<ElementId>(arena_));
  if (WantsSparse(sparse.CountSet())) return PushSparse(std::move(sparse));
  return PushDense(
      sparse.ToBitset(ArenaAllocator<DynamicBitset::Word>(arena_)));
}

SetId SetSystem::AddSetFromView(SetView view) {
  STREAMSC_CHECK(view.valid() && view.size() == universe_size_,
                 "SetSystem::AddSetFromView: view mismatches the system");
  if (WantsSparse(view.CountSet())) {
    // ToSparse materializes straight into this system's allocator (its
    // emitted ids are sorted, unique, and in-range by construction).
    return PushSparse(view.ToSparse(ArenaAllocator<ElementId>(arena_)));
  }
  return PushDense(view.ToDense(ArenaAllocator<DynamicBitset::Word>(arena_)));
}

bool SetSystem::IsSparse(SetId id) const {
  STREAMSC_DCHECK(id < slots_.size());
  return slots_[id].rep == Rep::kSparse;
}

SetSystem::Memory SetSystem::MemoryUsage() const {
  Memory memory;
  for (const auto& s : dense_) {
    memory.dense_bytes += s.ByteSize();
    ++memory.dense_sets;
  }
  for (const auto& s : sparse_) {
    memory.sparse_bytes += s.ByteSize();
    ++memory.sparse_sets;
  }
  return memory;
}

DynamicBitset SetSystem::UnionOf(std::span<const SetId> ids,
                                 DynamicBitset::Allocator alloc) const {
  DynamicBitset u(universe_size_, alloc);
  for (SetId id : ids) {
    STREAMSC_DCHECK(id < slots_.size());
    set(id).OrInto(u);
  }
  return u;
}

DynamicBitset SetSystem::UnionAll(DynamicBitset::Allocator alloc) const {
  DynamicBitset u(universe_size_, alloc);
  for (SetId id = 0; id < slots_.size(); ++id) set(id).OrInto(u);
  return u;
}

Count SetSystem::CoverageOf(std::span<const SetId> ids) const {
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  return UnionOf(ids, DynamicBitset::Allocator(&scratch)).CountSet();
}

bool SetSystem::IsFeasibleCover(std::span<const SetId> ids) const {
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  return UnionOf(ids, DynamicBitset::Allocator(&scratch)).All();
}

bool SetSystem::IsCoverable() const {
  MonotonicArena& scratch = ThreadScratchArena();
  const ArenaCheckpoint checkpoint(scratch);
  return UnionAll(DynamicBitset::Allocator(&scratch)).All();
}

Status SetSystem::Validate() const {
  for (SetId id = 0; id < slots_.size(); ++id) {
    if (set(id).size() != universe_size_) {
      return Status::Internal("set " + std::to_string(id) +
                              " has mismatched universe size");
    }
  }
  return Status::Ok();
}

Count SetSystem::TotalIncidences() const {
  Count total = 0;
  for (SetId id = 0; id < slots_.size(); ++id) total += set(id).CountSet();
  return total;
}

std::string SetSystem::DebugString() const {
  return "SetSystem(n=" + std::to_string(universe_size_) +
         ", m=" + std::to_string(slots_.size()) + ")";
}

}  // namespace streamsc
