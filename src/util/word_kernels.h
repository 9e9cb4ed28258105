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
/// AndNot / |= / &= and member enumeration) lands here, and so do the
/// loops of the sampled-universe projection (SubUniverse: the rank table,
/// the dense word gather and the sparse re-indexing). Each loop body
/// exists once and the instruction-set choice is made in exactly one
/// place; no other source file may call a popcount or pext builtin.
///
/// Instruction set for the counting and projection kernels, chosen once
/// per process:
///  - On x86-64 under GCC or Clang, the first call asks the CPU
///    (`__builtin_cpu_supports`) and binds, in this order of preference:
///    an AVX-512 VPOPCNTDQ set (the counts take eight words per vpopcntq,
///    the tail of fewer than eight one masked load; the prefix, rank and
///    gather kernels are those of the next two sets), a
///    `target("bmi2,popcnt")` set (the gather is one pext per source word;
///    the rest is the POPCNT build), a `target("popcnt")` build of the
///    same loops, or the portable ones.
///  - Everywhere else the portable loops run (software popcount; the
///    gather walks the surviving bits one at a time).
/// A call dispatches once for its whole array, never per word. The boolean
/// and update loops need no popcount and are not dispatched.
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

/// One step of a word gather: the bits of source word `src_word` selected
/// by `mask` land, compacted in order, at output bit `dst_bit`.
struct GatherBlock {
  std::uint32_t src_word;
  std::uint32_t dst_bit;
  std::uint64_t mask;
};

/// Writes rank[w] = the number of set bits in a[0..w), for every w < n.
void PrefixPopcountWords(const std::uint64_t* a, std::size_t n,
                         std::uint32_t* rank);

/// For each of blocks[0..n): ORs the bits of src[block.src_word] selected
/// by block.mask, compacted to the low end (pext), into dst from bit
/// block.dst_bit on. Bits past the end of a dst word continue in the next
/// one, so dst must be long enough to hold every block's bits.
void GatherWords(const std::uint64_t* src, const GatherBlock* blocks,
                 std::size_t n, std::uint64_t* dst);

/// Re-indexes the ids[0..k) that are bits of \p mask by their rank among
/// those bits: rank[id / 64] plus the number of mask bits below id in its
/// word (\p rank as PrefixPopcountWords writes it). Ids that are not bits
/// of the mask are dropped. Writes the ranks to out[0..) in input order and
/// returns how many there are.
std::size_t RankMembers(const ElementId* ids, std::size_t k,
                        const std::uint64_t* mask, const std::uint32_t* rank,
                        ElementId* out);

/// RankMembers, but sets bit `rank` of \p dst for each member instead.
void RankMembersToBits(const ElementId* ids, std::size_t k,
                       const std::uint64_t* mask, const std::uint32_t* rank,
                       std::uint64_t* dst);

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

/// Name of the kernel set the counting calls above run: "avx512-vpopcntdq"
/// or "popcnt" (hardware, picked at run time) or "portable". Lets a test
/// fail when a CPU that has VPOPCNTDQ or POPCNT does not get it.
std::string_view WordKernelName();

/// Name of the kernel set the projection calls (PrefixPopcountWords,
/// GatherWords, RankMembers*) run: "bmi2" (the POPCNT set with a pext
/// gather), "popcnt" or "portable".
std::string_view GatherKernelName();

}  // namespace streamsc

#endif  // STREAMSC_UTIL_WORD_KERNELS_H_
