#include "util/word_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitset.h"
#include "util/random.h"
#include "util/set_span.h"

namespace streamsc {
namespace {

using Word = std::uint64_t;

// The portable reference every kernel must agree with.
enum class Op { kFirst, kAnd, kAndNot, kXor };

Count Reference(const Word* a, const Word* b, std::size_t n, Op op) {
  Count total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Word w = a[i];
    if (op == Op::kAnd) w &= b[i];
    if (op == Op::kAndNot) w &= ~b[i];
    if (op == Op::kXor) w ^= b[i];
    total += static_cast<Count>(std::popcount(w));
  }
  return total;
}

// Random words with a mix of densities, so runs of zeros and of ones both
// appear.
std::vector<Word> RandomWords(Rng& rng, std::size_t n) {
  std::vector<Word> words(n);
  for (Word& w : words) {
    switch (rng.UniformInt(4)) {
      case 0: w = 0; break;
      case 1: w = ~Word{0}; break;
      case 2: w = rng.Next() & rng.Next() & rng.Next(); break;
      default: w = rng.Next(); break;
    }
  }
  return words;
}

// A bitset over \p bits elements holding the low \p bits bits of \p words.
DynamicBitset BitsetOf(const std::vector<Word>& words, std::size_t bits) {
  DynamicBitset out(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if ((words[i / 64] >> (i % 64)) & 1) out.Set(i);
  }
  return out;
}

TEST(WordKernelsTest, RawKernelsMatchReference) {
  Rng rng(12);
  for (std::size_t n = 0; n <= 130; ++n) {
    SCOPED_TRACE("words=" + std::to_string(n));
    const std::vector<Word> a = RandomWords(rng, n);
    const std::vector<Word> b = RandomWords(rng, n);
    EXPECT_EQ(PopcountWords(a.data(), n),
              Reference(a.data(), a.data(), n, Op::kFirst));
    EXPECT_EQ(CountAndWords(a.data(), b.data(), n),
              Reference(a.data(), b.data(), n, Op::kAnd));
    EXPECT_EQ(CountAndNotWords(a.data(), b.data(), n),
              Reference(a.data(), b.data(), n, Op::kAndNot));
    EXPECT_EQ(CountXorWords(a.data(), b.data(), n),
              Reference(a.data(), b.data(), n, Op::kXor));
  }
}

TEST(WordKernelsTest, BitsetAndSpanCountsMatchReference) {
  Rng rng(13);
  std::vector<std::size_t> sizes;
  for (std::size_t bits = 0; bits <= 130; ++bits) sizes.push_back(bits);
  sizes.push_back(4096);
  sizes.push_back(4096 + 13);
  for (const std::size_t bits : sizes) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    const std::size_t n = (bits + 63) / 64;
    const DynamicBitset a = BitsetOf(RandomWords(rng, n), bits);
    const DynamicBitset b = BitsetOf(RandomWords(rng, n), bits);
    // The bitsets' own words carry the zeroed ragged tail.
    const Word* aw = a.WordData();
    const Word* bw = b.WordData();
    const Count count = Reference(aw, aw, n, Op::kFirst);
    const Count count_and = Reference(aw, bw, n, Op::kAnd);
    const Count count_and_not = Reference(aw, bw, n, Op::kAndNot);

    EXPECT_EQ(a.CountSet(), count);
    EXPECT_EQ(a.CountAnd(b), count_and);
    EXPECT_EQ(a.CountAndNot(b), count_and_not);
    EXPECT_EQ(a.HammingDistance(b), Reference(aw, bw, n, Op::kXor));

    const DenseSpan span(aw, bits);
    EXPECT_EQ(span.CountSet(), count);
    EXPECT_EQ(span.CountAnd(b), count_and);
    EXPECT_EQ(span.CountAndNot(b), count_and_not);
  }
}

TEST(WordKernelsTest, HardwarePopcountIsActiveWhenTheCpuHasIt) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("popcnt")) {
    EXPECT_EQ(WordKernelName(), "portable");
    return;
  }
#if defined(__POPCNT__)
  EXPECT_EQ(WordKernelName(), "native-popcnt");
#else
  EXPECT_EQ(WordKernelName(), "popcnt");
#endif
#else
  EXPECT_EQ(WordKernelName(), "portable");
#endif
}

}  // namespace
}  // namespace streamsc
