#include "util/word_kernels.h"

#include <array>

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

#if defined(__POPCNT__)

// The compiler targets POPCNT already: call the loop directly.
template <Combine kOp>
Count Run(const Word* a, const Word* b, std::size_t n) {
  return CountLoop<kOp>(a, b, n);
}

std::string_view ActiveName() { return "native-popcnt"; }

#else

using KernelFn = Count (*)(const Word*, const Word*, std::size_t);

// One ISA's kernels, indexed by Combine.
struct KernelSet {
  std::array<KernelFn, 4> fns;
  std::string_view name;
};

template <Combine kOp>
Count Portable(const Word* a, const Word* b, std::size_t n) {
  return CountLoop<kOp>(a, b, n);
}

constexpr KernelSet kPortable = {
    {&Portable<Combine::kFirst>, &Portable<Combine::kAnd>,
     &Portable<Combine::kAndNot>, &Portable<Combine::kXor>},
    "portable"};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

template <Combine kOp>
__attribute__((target("popcnt"))) Count Hardware(const Word* a, const Word* b,
                                                 std::size_t n) {
  return CountLoop<kOp>(a, b, n);
}

constexpr KernelSet kHardware = {
    {&Hardware<Combine::kFirst>, &Hardware<Combine::kAnd>,
     &Hardware<Combine::kAndNot>, &Hardware<Combine::kXor>},
    "popcnt"};

KernelSet Select() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("popcnt") ? kHardware : kPortable;
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
  return Active().fns[static_cast<std::size_t>(kOp)](a, b, n);
}

std::string_view ActiveName() { return Active().name; }

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

std::string_view WordKernelName() { return ActiveName(); }

}  // namespace streamsc
