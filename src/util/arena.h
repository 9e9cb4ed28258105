#ifndef STREAMSC_UTIL_ARENA_H_
#define STREAMSC_UTIL_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "util/check.h"

/// \file arena.h
/// Per-run bump-allocation: the physical memory model behind the logical
/// SpaceMeter accounting.
///
/// A MonotonicArena is a chunked bump allocator: allocation is a pointer
/// increment inside the current chunk, falling back to carving a new chunk
/// (geometrically grown) from the heap only when the current one is full.
/// Individual deallocation is a no-op; memory is reclaimed wholesale via
/// watermarks (Position/Rewind), Reset (rewind to empty, *retain* chunks),
/// or destruction. Retaining chunks across Reset is what makes steady-state
/// solver runs allocation-free: the first run warms the arena up to its
/// high-water mark, every later run bumps inside already-owned chunks.
///
/// An optional byte *budget* bounds the total bytes handed out. Exceeding
/// it throws ArenaBudgetExceeded (a std::bad_alloc subtype), which the api
/// layer converts to a ResourceExhausted Status — user-sized input never
/// aborts the process. The budget is checked against bytes_used(), so the
/// verdict is deterministic: it does not depend on chunk geometry or on
/// how warm the arena is.
///
/// Threading contract: a MonotonicArena is single-threaded. Engine workers
/// never touch the per-run arena; they stage transient payloads in their
/// own thread-local scratch arenas (ThreadScratchArena / ThreadTableArena)
/// which the pass machinery rewinds at job boundaries.

namespace streamsc {

/// Thrown when an allocation would push a MonotonicArena past its byte
/// budget. Derives std::bad_alloc so budget-oblivious code still unwinds
/// through the standard out-of-memory path.
class ArenaBudgetExceeded : public std::bad_alloc {
 public:
  ArenaBudgetExceeded(std::size_t budget, std::size_t attempted)
      : budget_(budget), attempted_(attempted) {}

  const char* what() const noexcept override {
    return "streamsc: arena memory budget exceeded";
  }

  /// The configured budget in bytes.
  std::size_t budget() const { return budget_; }
  /// bytes_used() the allocation would have reached.
  std::size_t attempted() const { return attempted_; }

 private:
  std::size_t budget_;
  std::size_t attempted_;
};

/// Chunked bump allocator. Not copyable, not movable (containers hold
/// raw pointers to it). Not thread-safe: one arena per run / per thread.
class MonotonicArena {
 public:
  struct Options {
    /// Size of the first chunk carved from the heap.
    std::size_t initial_chunk_bytes = std::size_t{64} << 10;
    /// Chunk growth is geometric (x2) but capped here, so a huge run
    /// does not over-reserve its final chunk.
    std::size_t max_chunk_bytes = std::size_t{8} << 20;
    /// Hard cap on bytes_used(); 0 means unlimited. Exceeding throws
    /// ArenaBudgetExceeded.
    std::size_t budget_bytes = 0;
  };

  MonotonicArena() : MonotonicArena(Options{}) {}
  explicit MonotonicArena(Options options);
  ~MonotonicArena();

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Allocates \p bytes aligned to \p align (a power of two). Never
  /// returns nullptr; throws ArenaBudgetExceeded past the budget.
  /// Zero-byte requests return a valid, unique, aligned pointer.
  void* AllocateBytes(std::size_t bytes, std::size_t align);

  /// Typed allocation of \p count objects (uninitialized storage).
  template <typename T>
  T* Allocate(std::size_t count = 1) {
    static_assert(!std::is_const_v<T>, "allocating const storage");
    return static_cast<T*>(AllocateBytes(count * sizeof(T), alignof(T)));
  }

  /// A watermark: the bump position at some instant.
  struct Mark {
    std::size_t chunk_index = 0;
    std::size_t chunk_offset = 0;
    std::size_t used = 0;
  };

  /// Captures the current bump position.
  Mark Position() const {
    return Mark{current_chunk_, current_offset_, used_};
  }

  /// Rewinds to a previously captured position, releasing (logically)
  /// everything allocated after it. Chunks are retained. Objects with
  /// non-trivial destructors allocated past \p mark must already have
  /// been destroyed by the caller.
  void Rewind(const Mark& mark);

  /// Rewinds to empty, retaining all chunks for reuse. This is the
  /// per-run reset: after the first (warm-up) run, later runs of the
  /// same shape perform zero heap allocations.
  void Reset();

  /// Returns all chunk memory to the heap (arena becomes cold).
  void ReleaseChunks();

  /// Bytes currently handed out (requested bytes; alignment slack is
  /// excluded so the count — and the budget verdict — is a pure function
  /// of the allocation sequence).
  std::size_t bytes_used() const { return used_; }

  /// Maximum bytes_used() observed since construction / ResetHighWater.
  std::size_t high_water() const { return high_water_; }

  /// Total chunk capacity owned (the physical footprint).
  std::size_t bytes_reserved() const { return reserved_; }

  /// Number of chunks carved from the heap so far.
  std::size_t chunk_count() const { return chunks_.size(); }

  /// Current budget in bytes (0 = unlimited).
  std::size_t budget() const { return options_.budget_bytes; }

  /// Adjusts the budget. Takes effect on the next allocation; already
  /// handed-out bytes are unaffected.
  void set_budget(std::size_t budget_bytes) {
    options_.budget_bytes = budget_bytes;
  }

  /// Restarts high-water tracking from the current usage.
  void ResetHighWater() { high_water_ = used_; }

 private:
  struct Chunk {
    unsigned char* data = nullptr;
    std::size_t capacity = 0;
  };

  /// Slow path: advances to (or carves) a chunk that fits the request.
  void* AllocateSlow(std::size_t bytes, std::size_t align);

  Options options_;
  std::vector<Chunk> chunks_;
  std::size_t current_chunk_ = 0;  // valid only when !chunks_.empty()
  std::size_t current_offset_ = 0;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  std::size_t reserved_ = 0;
};

/// Thread-local scratch arena for pass-transient staging (snapshot and
/// commit buffers, per-node search temporaries). Each thread — engine
/// worker or orchestrator — gets its own; the engine rewinds a worker's
/// scratch at job entry, so scratch-backed storage must never outlive the
/// pass that staged it.
MonotonicArena& ThreadScratchArena();

/// Second thread-local arena for call-scoped tables (e.g. the exact
/// subsolver's set views, incidence lists and incumbent) that must survive
/// interleaved LIFO rewinds of ThreadScratchArena. Callers bracket use
/// with Position/Rewind.
MonotonicArena& ThreadTableArena();

/// How an ArenaAllocator resolves its backing storage.
enum class ArenaBinding : unsigned char {
  kHeap = 0,   ///< Global operator new/delete (the default).
  kPinned,     ///< A specific MonotonicArena, captured at construction.
  kScratch,    ///< ThreadScratchArena() of the *allocating* thread.
  kTable,      ///< ThreadTableArena() of the *allocating* thread.
};

/// std-compatible allocator over a MonotonicArena, with a heap fallback
/// so default-constructed containers keep working unchanged.
///
/// Propagation traits are chosen for per-run ownership semantics:
///  - moves carry the arena with the buffer (POCMA / POCS true);
///  - copies fall back to the heap (select_on_container_copy_construction
///    returns a heap allocator, POCCA false), so a copied container never
///    silently pins an arena whose lifetime the copier may not control.
/// Re-homing a container *into* an arena is therefore always explicit:
/// construct with an ArenaAllocator and copy-assign / insert the contents.
///
/// The kScratch / kTable bindings resolve the thread-local arena at each
/// allocate() call, which makes the allocator stateless across threads: a
/// container may be constructed on one thread and grown on another (the
/// engine's lane-major passes do this); each thread's bytes come from its
/// own arena and deallocate is a no-op everywhere.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  /// Heap-backed (drop-in for std::allocator).
  ArenaAllocator() noexcept = default;

  /// Pinned to \p arena; nullptr degrades to the heap binding.
  explicit ArenaAllocator(MonotonicArena* arena) noexcept
      : arena_(arena),
        binding_(arena ? ArenaBinding::kPinned : ArenaBinding::kHeap) {}

  /// Thread-local scratch binding (resolved per allocate call).
  static ArenaAllocator Scratch() noexcept {
    return ArenaAllocator(ArenaBinding::kScratch);
  }

  /// Thread-local table binding (resolved per allocate call).
  static ArenaAllocator Table() noexcept {
    return ArenaAllocator(ArenaBinding::kTable);
  }

  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept  // NOLINT
      : arena_(other.arena()), binding_(other.binding()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    switch (binding_) {
      case ArenaBinding::kPinned:
        return static_cast<T*>(arena_->AllocateBytes(bytes, alignof(T)));
      case ArenaBinding::kScratch:
        return static_cast<T*>(
            ThreadScratchArena().AllocateBytes(bytes, alignof(T)));
      case ArenaBinding::kTable:
        return static_cast<T*>(
            ThreadTableArena().AllocateBytes(bytes, alignof(T)));
      case ArenaBinding::kHeap:
        break;
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (binding_ == ArenaBinding::kHeap) {
      ::operator delete(p, n * sizeof(T));
    }
    // Arena-backed storage is reclaimed by Rewind/Reset, never piecewise.
  }

  /// Copied containers land on the heap (see class comment).
  ArenaAllocator select_on_container_copy_construction() const noexcept {
    return ArenaAllocator();
  }

  MonotonicArena* arena() const noexcept { return arena_; }
  ArenaBinding binding() const noexcept { return binding_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return binding_ == other.binding() && arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const noexcept {
    return !(*this == other);
  }

 private:
  explicit ArenaAllocator(ArenaBinding binding) noexcept
      : binding_(binding) {}

  template <typename U>
  friend class ArenaAllocator;

  MonotonicArena* arena_ = nullptr;
  ArenaBinding binding_ = ArenaBinding::kHeap;
};

/// The project's arena-aware vector: identical to std::vector when
/// default-constructed (heap binding), bump-allocated when given an arena.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// Cross-allocator equality so arena-backed vectors compare against plain
/// std::vector literals in tests and call sites. Found via ADL through
/// ArenaAllocator's namespace; constrained away from the same-allocator
/// case, which std::operator== already covers.
template <typename T, typename A,
          typename = std::enable_if_t<!std::is_same_v<A, ArenaAllocator<T>>>>
bool operator==(const std::vector<T, ArenaAllocator<T>>& a,
                const std::vector<T, A>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

template <typename T, typename A,
          typename = std::enable_if_t<!std::is_same_v<A, ArenaAllocator<T>>>>
bool operator==(const std::vector<T, A>& a,
                const std::vector<T, ArenaAllocator<T>>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

template <typename T, typename A,
          typename = std::enable_if_t<!std::is_same_v<A, ArenaAllocator<T>>>>
bool operator!=(const std::vector<T, ArenaAllocator<T>>& a,
                const std::vector<T, A>& b) {
  return !(a == b);
}

template <typename T, typename A,
          typename = std::enable_if_t<!std::is_same_v<A, ArenaAllocator<T>>>>
bool operator!=(const std::vector<T, A>& a,
                const std::vector<T, ArenaAllocator<T>>& b) {
  return !(a == b);
}

/// RAII watermark: captures an arena position and rewinds on destruction.
/// For LIFO scratch discipline around recursion / per-item temporaries.
class ArenaCheckpoint {
 public:
  explicit ArenaCheckpoint(MonotonicArena& arena)
      : arena_(&arena), mark_(arena.Position()) {}
  ~ArenaCheckpoint() { arena_->Rewind(mark_); }

  ArenaCheckpoint(const ArenaCheckpoint&) = delete;
  ArenaCheckpoint& operator=(const ArenaCheckpoint&) = delete;

 private:
  MonotonicArena* arena_;
  MonotonicArena::Mark mark_;
};

}  // namespace streamsc

#endif  // STREAMSC_UTIL_ARENA_H_
