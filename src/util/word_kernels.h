#ifndef STREAMSC_UTIL_WORD_KERNELS_H_
#define STREAMSC_UTIL_WORD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/common.h"

/// \file word_kernels.h
/// The one site for the loops over packed 64-bit words. Every dense set
/// operation in the set substrate (DynamicBitset and DenseSpan: the
/// popcounts CountSet / CountAnd / CountAndNot / HammingDistance, the
/// boolean tests None / Intersects / IsSubsetOf, the in-place updates
/// AndNot / |= / &= and member enumeration) lands here, so each loop body
/// exists once and the instruction-set choice is made in exactly one place.
///
/// Instruction set for the counting kernels, chosen once per process:
///  - When the compiler already targets POPCNT (`__POPCNT__`, e.g. a
///    `-march=native` build), the kernels are plain loops that compile to
///    the hardware instruction; there is no dispatch.
///  - Otherwise, on x86-64 under GCC or Clang, the first call asks the CPU
///    (`__builtin_cpu_supports("popcnt")`) and binds either a
///    `target("popcnt")` build of the same loops or the portable ones.
///  - Everywhere else the portable `std::popcount` loops run.
/// The boolean and update loops need no popcount and are not dispatched.
///
/// The kernels read raw arrays and check nothing: callers pass equal-length
/// word runs whose tail bits beyond the logical size are zero (the
/// invariant DynamicBitset and DenseSpan already keep). The update kernels
/// keep that invariant: AND never sets a bit, and OR-ing a run whose tail
/// is zero leaves the destination's tail zero.

namespace streamsc {

/// Number of set bits in a[0..n).
Count PopcountWords(const std::uint64_t* a, std::size_t n);

/// |a & b| over n words.
Count CountAndWords(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n);

/// |a & ~b| over n words.
Count CountAndNotWords(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n);

/// |a ^ b| over n words (the Hamming distance).
Count CountXorWords(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n);

/// True iff every word of a[0..n) is zero.
bool NoneWords(const std::uint64_t* a, std::size_t n);

/// True iff a & b has a set bit over n words.
bool IntersectsWords(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n);

/// True iff a & ~b is zero over n words (a is a subset of b).
bool IsSubsetWords(const std::uint64_t* a, const std::uint64_t* b,
                   std::size_t n);

/// dst &= src over n words.
void AndWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);

/// dst &= ~src over n words.
void AndNotWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);

/// dst |= src over n words.
void OrWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);

/// Calls \p fn(ElementId) for every set bit of a[0..n), in increasing bit
/// order (bit b of word w is element w * 64 + b).
template <typename Fn>
void ForEachSetBit(const std::uint64_t* a, std::size_t n, Fn&& fn) {
  for (std::size_t w = 0; w < n; ++w) {
    std::uint64_t word = a[w];
    while (word != 0) {
      fn(static_cast<ElementId>(w * 64 + __builtin_ctzll(word)));
      word &= word - 1;
    }
  }
}

/// Name of the kernel set the calls above run: "native-popcnt" (compiled
/// for POPCNT, no dispatch), "popcnt" (hardware, picked at run time) or
/// "portable". Lets a test fail when a CPU that has POPCNT does not get it.
std::string_view WordKernelName();

}  // namespace streamsc

#endif  // STREAMSC_UTIL_WORD_KERNELS_H_
