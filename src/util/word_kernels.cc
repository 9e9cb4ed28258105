#include "util/word_kernels.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace streamsc {
namespace {

using Word = std::uint64_t;

// How a kernel combines word i of its two inputs before counting it.
enum class Combine : std::size_t { kFirst, kAnd, kAndNot, kXor };

// Word i of the kernel's input: a[i] combined with b[i] by kOp.
template <Combine kOp>
[[gnu::always_inline]] inline Word Apply(Word a, Word b) {
  if constexpr (kOp == Combine::kAnd) return a & b;
  if constexpr (kOp == Combine::kAndNot) return a & ~b;
  if constexpr (kOp == Combine::kXor) return a ^ b;
  return a;
}

// The one counting loop. It is always inlined, so every instantiation is
// compiled under the target of the function that calls it: the same source
// becomes the POPCNT build inside the target("popcnt") wrappers below and
// the portable build everywhere else. (__builtin_popcountll rather than
// std::popcount so that holds at -O0 too, where std::popcount would stay an
// out-of-line call compiled for the default target.) Four independent
// accumulators keep the popcounts of consecutive words from queueing
// behind one add chain.
template <Combine kOp>
[[gnu::always_inline]] inline Count CountLoop(const Word* a, const Word* b,
                                              std::size_t n) {
  Count t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    t0 += static_cast<Count>(__builtin_popcountll(Apply<kOp>(a[i], b[i])));
    t1 += static_cast<Count>(
        __builtin_popcountll(Apply<kOp>(a[i + 1], b[i + 1])));
    t2 += static_cast<Count>(
        __builtin_popcountll(Apply<kOp>(a[i + 2], b[i + 2])));
    t3 += static_cast<Count>(
        __builtin_popcountll(Apply<kOp>(a[i + 3], b[i + 3])));
  }
  for (; i < n; ++i) {
    t0 += static_cast<Count>(__builtin_popcountll(Apply<kOp>(a[i], b[i])));
  }
  return t0 + t1 + t2 + t3;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

// The ISA of the wide counting loop below.
#define STREAMSC_VPOPCNT_TARGET "avx512f,avx512vpopcntdq"

// The popcounts of eight words of the kernel's input, Apply on a vector.
// (GNU vector operators rather than _mm512_andnot_si512 and friends: GCC 12
// flags the _mm512_undefined_* inside those as uninitialized under -Werror.)
template <Combine kOp>
[[gnu::always_inline]] inline __attribute__((target(STREAMSC_VPOPCNT_TARGET)))
__m512i PopcountLanes(__m512i a, __m512i b) {
  if constexpr (kOp == Combine::kAnd) a &= b;
  if constexpr (kOp == Combine::kAndNot) a &= ~b;
  if constexpr (kOp == Combine::kXor) a ^= b;
  return _mm512_popcnt_epi64(a);
}

// The counting loop on AVX-512 VPOPCNTDQ: eight words per vpopcntq, two
// zmm accumulators. A tail of fewer than eight words is one masked load,
// which reads nothing past word n. Always inlined, like CountLoop, so the
// same body serves the target(...) wrappers and a -march=native build.
// The lanes are added up after one aligned store (GCC 12 rejects
// _mm512_reduce_add_epi64 for the same reason as above).
template <Combine kOp>
[[gnu::always_inline]] inline __attribute__((target(STREAMSC_VPOPCNT_TARGET)))
Count VpopcntLoop(const Word* a, const Word* b, std::size_t n) {
  __m512i s0 = _mm512_setzero_si512();
  __m512i s1 = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    s0 += PopcountLanes<kOp>(_mm512_loadu_si512(a + i),
                             _mm512_loadu_si512(b + i));
    s1 += PopcountLanes<kOp>(_mm512_loadu_si512(a + i + 8),
                             _mm512_loadu_si512(b + i + 8));
  }
  if (i + 8 <= n) {
    s0 += PopcountLanes<kOp>(_mm512_loadu_si512(a + i),
                             _mm512_loadu_si512(b + i));
    i += 8;
  }
  if (i < n) {
    const auto tail = static_cast<__mmask8>((1u << (n - i)) - 1);
    s1 += PopcountLanes<kOp>(_mm512_maskz_loadu_epi64(tail, a + i),
                             _mm512_maskz_loadu_epi64(tail, b + i));
  }
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, s0 + s1);
  Count total = 0;
  for (const std::uint64_t lane : lanes) total += static_cast<Count>(lane);
  return total;
}

#endif

// The loop bodies of the projection kernels, always inlined for the same
// reason as CountLoop: each build below compiles them for its own target.

// rank[w] = set bits in a[0..w).
[[gnu::always_inline]] inline void PrefixLoop(const Word* a, std::size_t n,
                                              std::uint32_t* rank) {
  std::uint32_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    rank[w] = total;
    total += static_cast<std::uint32_t>(__builtin_popcountll(a[w]));
  }
}

// The rank of each member id among the bits of `mask`; kToBits sets that
// bit in `dst`, otherwise the rank is appended to `out`. Returns the number
// of members.
template <bool kToBits>
[[gnu::always_inline]] inline std::size_t RankLoop(
    const ElementId* ids, std::size_t k, const Word* mask,
    const std::uint32_t* rank, ElementId* out, Word* dst) {
  std::size_t members = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t w = ids[i] / 64;
    const unsigned b = ids[i] % 64;
    const Word word = mask[w];
    if (((word >> b) & 1) == 0) continue;
    const ElementId r =
        rank[w] + static_cast<ElementId>(
                      __builtin_popcountll(word & ((Word{1} << b) - 1)));
    if constexpr (kToBits) {
      dst[r / 64] |= Word{1} << (r % 64);
    } else {
      out[members] = r;
    }
    ++members;
  }
  return members;
}

// Compacts the bits of x selected by mask into the low bits of the result
// (pext semantics) without BMI2: one iteration per mask bit that survives
// in x, so an all-zero input costs one branch.
[[gnu::always_inline]] inline Word ExtractLoop(Word x, Word mask) {
  Word selected = x & mask;
  Word out = 0;
  while (selected != 0) {
    const Word lowest = selected & (~selected + 1);
    // Rank of this bit among the mask bits = its output position.
    out |= Word{1} << __builtin_popcountll(mask & (lowest - 1));
    selected ^= lowest;
  }
  return out;
}

// ORs a block's extracted bits into dst at bit dst_bit. The bits that do
// not fit in that word spill into the next one, which exists exactly when
// any do.
[[gnu::always_inline]] inline void PlaceBits(Word* dst, std::uint32_t dst_bit,
                                             Word bits) {
  if (bits == 0) return;
  const std::size_t word = dst_bit / 64;
  const unsigned offset = dst_bit % 64;
  dst[word] |= bits << offset;
  if (offset == 0) return;
  const Word spill = bits >> (64 - offset);
  if (spill != 0) dst[word + 1] |= spill;
}

// The gather without BMI2.
[[gnu::always_inline]] inline void GatherLoop(const Word* src,
                                              const GatherBlock* blocks,
                                              std::size_t n, Word* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    PlaceBits(dst, blocks[i].dst_bit,
              ExtractLoop(src[blocks[i].src_word], blocks[i].mask));
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

// The gather with BMI2. It repeats GatherLoop around the instruction
// rather than sharing it, because GCC refuses to inline a BMI2 intrinsic
// into an always-inline helper that is not itself compiled for BMI2.
// (Unused in a build that targets POPCNT but not BMI2.)
[[maybe_unused]] __attribute__((target("bmi2,popcnt"))) void Bmi2Gather(
    const Word* src, const GatherBlock* blocks, std::size_t n, Word* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    PlaceBits(dst, blocks[i].dst_bit,
              _pext_u64(src[blocks[i].src_word], blocks[i].mask));
  }
}

#endif

#if defined(__POPCNT__)

// The compiler targets POPCNT already: call the loops directly, the wide
// counting loop where the target has VPOPCNTDQ too.
#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

template <Combine kOp>
Count Run(const Word* a, const Word* b, std::size_t n) {
  return VpopcntLoop<kOp>(a, b, n);
}

std::string_view ActiveName() { return "native-avx512-vpopcntdq"; }

#else

template <Combine kOp>
Count Run(const Word* a, const Word* b, std::size_t n) {
  return CountLoop<kOp>(a, b, n);
}

std::string_view ActiveName() { return "native-popcnt"; }

#endif

void RunPrefix(const Word* a, std::size_t n, std::uint32_t* rank) {
  PrefixLoop(a, n, rank);
}

template <bool kToBits>
std::size_t RunRank(const ElementId* ids, std::size_t k, const Word* mask,
                    const std::uint32_t* rank, ElementId* out, Word* dst) {
  return RankLoop<kToBits>(ids, k, mask, rank, out, dst);
}

#if defined(__BMI2__)

void RunGather(const Word* src, const GatherBlock* blocks, std::size_t n,
               Word* dst) {
  Bmi2Gather(src, blocks, n, dst);
}

std::string_view ActiveGatherName() { return "native-bmi2"; }

#else

void RunGather(const Word* src, const GatherBlock* blocks, std::size_t n,
               Word* dst) {
  GatherLoop(src, blocks, n, dst);
}

std::string_view ActiveGatherName() { return "native-popcnt"; }

#endif

#else

using CountFn = Count (*)(const Word*, const Word*, std::size_t);
using PrefixFn = void (*)(const Word*, std::size_t, std::uint32_t*);
using RankFn = std::size_t (*)(const ElementId*, std::size_t, const Word*,
                               const std::uint32_t*, ElementId*, Word*);
using GatherFn = void (*)(const Word*, const GatherBlock*, std::size_t,
                          Word*);

// One ISA's kernels: the counts indexed by Combine, the ranks by kToBits.
struct KernelSet {
  std::array<CountFn, 4> count;
  PrefixFn prefix;
  std::array<RankFn, 2> rank;
  GatherFn gather;
  std::string_view name;
  std::string_view gather_name;
};

template <Combine kOp>
Count PortableCount(const Word* a, const Word* b, std::size_t n) {
  return CountLoop<kOp>(a, b, n);
}

void PortablePrefix(const Word* a, std::size_t n, std::uint32_t* rank) {
  PrefixLoop(a, n, rank);
}

template <bool kToBits>
std::size_t PortableRank(const ElementId* ids, std::size_t k, const Word* mask,
                         const std::uint32_t* rank, ElementId* out,
                         Word* dst) {
  return RankLoop<kToBits>(ids, k, mask, rank, out, dst);
}

void PortableGather(const Word* src, const GatherBlock* blocks, std::size_t n,
                    Word* dst) {
  GatherLoop(src, blocks, n, dst);
}

constexpr KernelSet kPortable = {
    {&PortableCount<Combine::kFirst>, &PortableCount<Combine::kAnd>,
     &PortableCount<Combine::kAndNot>, &PortableCount<Combine::kXor>},
    &PortablePrefix,
    {&PortableRank<false>, &PortableRank<true>},
    &PortableGather,
    "portable",
    "portable"};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

template <Combine kOp>
__attribute__((target("popcnt"))) Count PopcntCount(const Word* a,
                                                    const Word* b,
                                                    std::size_t n) {
  return CountLoop<kOp>(a, b, n);
}

__attribute__((target("popcnt"))) void PopcntPrefix(const Word* a,
                                                    std::size_t n,
                                                    std::uint32_t* rank) {
  PrefixLoop(a, n, rank);
}

template <bool kToBits>
__attribute__((target("popcnt"))) std::size_t PopcntRank(
    const ElementId* ids, std::size_t k, const Word* mask,
    const std::uint32_t* rank, ElementId* out, Word* dst) {
  return RankLoop<kToBits>(ids, k, mask, rank, out, dst);
}

__attribute__((target("popcnt"))) void PopcntGather(const Word* src,
                                                    const GatherBlock* blocks,
                                                    std::size_t n, Word* dst) {
  GatherLoop(src, blocks, n, dst);
}

constexpr KernelSet kPopcnt = {
    {&PopcntCount<Combine::kFirst>, &PopcntCount<Combine::kAnd>,
     &PopcntCount<Combine::kAndNot>, &PopcntCount<Combine::kXor>},
    &PopcntPrefix,
    {&PopcntRank<false>, &PopcntRank<true>},
    &PopcntGather,
    "popcnt",
    "popcnt"};

// BMI2 changes only the gather; the counts and ranks are the POPCNT ones.
constexpr KernelSet kBmi2 = {kPopcnt.count, kPopcnt.prefix, kPopcnt.rank,
                             &Bmi2Gather,   "popcnt",       "bmi2"};

template <Combine kOp>
__attribute__((target(STREAMSC_VPOPCNT_TARGET))) Count VpopcntCount(
    const Word* a, const Word* b, std::size_t n) {
  return VpopcntLoop<kOp>(a, b, n);
}

// VPOPCNTDQ changes only the counts; the rest is the POPCNT/BMI2 set.
constexpr std::array<CountFn, 4> kVpopcntCount = {
    &VpopcntCount<Combine::kFirst>, &VpopcntCount<Combine::kAnd>,
    &VpopcntCount<Combine::kAndNot>, &VpopcntCount<Combine::kXor>};

KernelSet Select() {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("popcnt")) return kPortable;
  KernelSet set = __builtin_cpu_supports("bmi2") ? kBmi2 : kPopcnt;
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    set.count = kVpopcntCount;
    set.name = "avx512-vpopcntdq";
  }
  return set;
}

#else

KernelSet Select() { return kPortable; }

#endif

// Bound on first use (thread-safe static init), fixed for the process.
const KernelSet& Active() {
  static const KernelSet active = Select();
  return active;
}

template <Combine kOp>
Count Run(const Word* a, const Word* b, std::size_t n) {
  return Active().count[static_cast<std::size_t>(kOp)](a, b, n);
}

void RunPrefix(const Word* a, std::size_t n, std::uint32_t* rank) {
  Active().prefix(a, n, rank);
}

template <bool kToBits>
std::size_t RunRank(const ElementId* ids, std::size_t k, const Word* mask,
                    const std::uint32_t* rank, ElementId* out, Word* dst) {
  return Active().rank[kToBits](ids, k, mask, rank, out, dst);
}

void RunGather(const Word* src, const GatherBlock* blocks, std::size_t n,
               Word* dst) {
  Active().gather(src, blocks, n, dst);
}

std::string_view ActiveName() { return Active().name; }

std::string_view ActiveGatherName() { return Active().gather_name; }

#endif

}  // namespace

Count PopcountWords(const std::uint64_t* a, std::size_t n) {
  return Run<Combine::kFirst>(a, a, n);
}

Count CountAndWords(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) {
  return Run<Combine::kAnd>(a, b, n);
}

Count CountAndNotWords(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) {
  return Run<Combine::kAndNot>(a, b, n);
}

Count CountXorWords(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) {
  return Run<Combine::kXor>(a, b, n);
}

bool NoneWords(const std::uint64_t* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

bool IntersectsWords(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

bool IsSubsetWords(const std::uint64_t* a, const std::uint64_t* b,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

void AndWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void AndNotWords(std::uint64_t* dst, const std::uint64_t* src,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

void OrWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void PrefixPopcountWords(const std::uint64_t* a, std::size_t n,
                         std::uint32_t* rank) {
  RunPrefix(a, n, rank);
}

void GatherWords(const std::uint64_t* src, const GatherBlock* blocks,
                 std::size_t n, std::uint64_t* dst) {
  RunGather(src, blocks, n, dst);
}

std::size_t RankMembers(const ElementId* ids, std::size_t k,
                        const std::uint64_t* mask, const std::uint32_t* rank,
                        ElementId* out) {
  return RunRank<false>(ids, k, mask, rank, out, nullptr);
}

void RankMembersToBits(const ElementId* ids, std::size_t k,
                       const std::uint64_t* mask, const std::uint32_t* rank,
                       std::uint64_t* dst) {
  RunRank<true>(ids, k, mask, rank, nullptr, dst);
}

std::string_view WordKernelName() { return ActiveName(); }

std::string_view GatherKernelName() { return ActiveGatherName(); }

}  // namespace streamsc
