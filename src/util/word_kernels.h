#ifndef STREAMSC_UTIL_WORD_KERNELS_H_
#define STREAMSC_UTIL_WORD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/common.h"

/// \file word_kernels.h
/// The one site for the counting kernels over packed 64-bit words. Every
/// dense popcount in the set substrate (DynamicBitset and DenseSpan:
/// CountSet, CountAnd, CountAndNot, HammingDistance) lands here, so the
/// instruction-set choice is made in exactly one place.
///
/// Instruction set, chosen once per process:
///  - When the compiler already targets POPCNT (`__POPCNT__`, e.g. a
///    `-march=native` build), the kernels are plain loops that compile to
///    the hardware instruction; there is no dispatch.
///  - Otherwise, on x86-64 under GCC or Clang, the first call asks the CPU
///    (`__builtin_cpu_supports("popcnt")`) and binds either a
///    `target("popcnt")` build of the same loops or the portable ones.
///  - Everywhere else the portable `std::popcount` loops run.
///
/// The kernels read raw arrays and check nothing: callers pass equal-length
/// word runs whose tail bits beyond the logical size are zero (the
/// invariant DynamicBitset and DenseSpan already keep).

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

/// Name of the kernel set the calls above run: "native-popcnt" (compiled
/// for POPCNT, no dispatch), "popcnt" (hardware, picked at run time) or
/// "portable". Lets a test fail when a CPU that has POPCNT does not get it.
std::string_view WordKernelName();

}  // namespace streamsc

#endif  // STREAMSC_UTIL_WORD_KERNELS_H_
