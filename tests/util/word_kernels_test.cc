#include "util/word_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <new>
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

// n words that end at the last word of their own heap allocation, so an
// ASan build reports any read past word n. A skewed run starts one word
// past a 64-byte boundary.
class WordRun {
 public:
  WordRun(std::size_t n, bool skewed)
      : skew_(skewed ? 1 : 0),
        base_(static_cast<Word*>(::operator new(
            (n + skew_) * sizeof(Word), std::align_val_t{64}))) {}
  ~WordRun() { ::operator delete(base_, std::align_val_t{64}); }
  WordRun(const WordRun&) = delete;
  WordRun& operator=(const WordRun&) = delete;

  Word* data() { return base_ + skew_; }

 private:
  std::size_t skew_;
  Word* base_;
};

TEST(WordKernelsTest, CountsAgreeWithAScalarReferenceAtEveryLength) {
  Rng rng(27);
  for (const std::size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1563}) {
    for (const bool skewed : {false, true}) {
      for (const bool all_ones : {false, true}) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     (skewed ? " skewed" : " aligned") +
                     (all_ones ? " all-ones" : " random"));
        WordRun a(n, skewed);
        WordRun b(n, skewed);
        const std::vector<Word> ra = RandomWords(rng, n);
        const std::vector<Word> rb = RandomWords(rng, n);
        for (std::size_t i = 0; i < n; ++i) {
          a.data()[i] = all_ones ? ~Word{0} : ra[i];
          b.data()[i] = rb[i];
        }
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

// Definitional gather: the k-th set bit of each block's mask (in
// increasing order) goes to output bit dst_bit + k.
std::vector<Word> ReferenceGather(const std::vector<Word>& src,
                                  const std::vector<GatherBlock>& blocks,
                                  std::size_t out_words) {
  std::vector<Word> out(out_words, 0);
  for (const GatherBlock& block : blocks) {
    std::size_t k = 0;
    for (unsigned b = 0; b < 64; ++b) {
      if (((block.mask >> b) & 1) == 0) continue;
      if ((src[block.src_word] >> b) & 1) {
        const std::size_t bit = block.dst_bit + k;
        out[bit / 64] |= Word{1} << (bit % 64);
      }
      ++k;
    }
  }
  return out;
}

// The gather plan SubUniverse builds: one block per non-empty mask word,
// each starting where the previous one's bits end.
std::vector<GatherBlock> PlanOf(const std::vector<Word>& masks,
                                std::size_t* out_bits) {
  std::vector<GatherBlock> blocks;
  std::uint32_t dst_bit = 0;
  for (std::size_t w = 0; w < masks.size(); ++w) {
    if (masks[w] == 0) continue;
    blocks.push_back({static_cast<std::uint32_t>(w), dst_bit, masks[w]});
    dst_bit += static_cast<std::uint32_t>(std::popcount(masks[w]));
  }
  *out_bits = dst_bit;
  return blocks;
}

TEST(WordKernelsTest, PrefixPopcountMatchesReference) {
  Rng rng(14);
  for (std::size_t n = 0; n <= 70; ++n) {
    SCOPED_TRACE("words=" + std::to_string(n));
    const std::vector<Word> a = RandomWords(rng, n);
    std::vector<std::uint32_t> rank(n, 7);
    PrefixPopcountWords(a.data(), n, rank.data());
    std::uint32_t total = 0;
    for (std::size_t w = 0; w < n; ++w) {
      EXPECT_EQ(rank[w], total) << "w=" << w;
      total += static_cast<std::uint32_t>(std::popcount(a[w]));
    }
  }
}

TEST(WordKernelsTest, GatherMatchesReferenceOnEdgeMasks) {
  // Empty, all-ones, single-bit and boundary masks, against all-ones,
  // empty and random sources, each at every output offset of a word.
  const std::vector<Word> masks = {0,
                                   ~Word{0},
                                   Word{1},
                                   Word{1} << 63,
                                   Word{1} << 31,
                                   0x8000000000000001ull,
                                   0x00000000ffffffffull,
                                   0xffffffff00000000ull,
                                   0x5555555555555555ull};
  Rng rng(15);
  const std::vector<Word> sources = {0, ~Word{0}, rng.Next(), rng.Next()};
  for (const Word mask : masks) {
    for (const Word source : sources) {
      for (std::uint32_t dst_bit = 0; dst_bit < 64; ++dst_bit) {
        SCOPED_TRACE("mask=" + std::to_string(mask) +
                     " dst_bit=" + std::to_string(dst_bit));
        const std::vector<Word> src = {source};
        const std::vector<GatherBlock> blocks = {{0, dst_bit, mask}};
        // Two output words: dst_bit + popcount(mask) > 64 spills into the
        // second.
        std::vector<Word> out(2, 0);
        GatherWords(src.data(), blocks.data(), blocks.size(), out.data());
        EXPECT_EQ(out, ReferenceGather(src, blocks, 2));
      }
    }
  }
}

TEST(WordKernelsTest, GatherMatchesReferenceOnRandomPlans) {
  Rng rng(16);
  for (std::size_t n = 0; n <= 70; ++n) {
    SCOPED_TRACE("words=" + std::to_string(n));
    const std::vector<Word> masks = RandomWords(rng, n);
    const std::vector<Word> src = RandomWords(rng, n);
    std::size_t out_bits = 0;
    const std::vector<GatherBlock> blocks = PlanOf(masks, &out_bits);
    // The plan's own output length: every spill lands inside it.
    const std::size_t out_words = (out_bits + 63) / 64;
    std::vector<Word> out(out_words, 0);
    GatherWords(src.data(), blocks.data(), blocks.size(), out.data());
    EXPECT_EQ(out, ReferenceGather(src, blocks, out_words));
  }
}

TEST(WordKernelsTest, RankMembersMatchesReference) {
  Rng rng(17);
  for (std::size_t n = 1; n <= 40; ++n) {
    SCOPED_TRACE("words=" + std::to_string(n));
    const std::vector<Word> mask = RandomWords(rng, n);
    std::vector<std::uint32_t> rank(n);
    std::uint32_t total = 0;
    for (std::size_t w = 0; w < n; ++w) {
      rank[w] = total;
      total += static_cast<std::uint32_t>(std::popcount(mask[w]));
    }
    // Ids at the word edges and random ones, sorted and distinct.
    std::vector<ElementId> ids;
    for (std::size_t id = 0; id < n * 64; ++id) {
      const std::size_t b = id % 64;
      if (b == 0 || b == 1 || b == 62 || b == 63 || rng.UniformInt(4) == 0) {
        ids.push_back(static_cast<ElementId>(id));
      }
    }
    std::vector<ElementId> expected;
    std::vector<Word> expected_bits((total + 63) / 64, 0);
    for (const ElementId id : ids) {
      const Word word = mask[id / 64];
      if (((word >> (id % 64)) & 1) == 0) continue;
      const ElementId r =
          rank[id / 64] +
          static_cast<ElementId>(
              std::popcount(word & ((Word{1} << (id % 64)) - 1)));
      expected.push_back(r);
      expected_bits[r / 64] |= Word{1} << (r % 64);
    }

    std::vector<ElementId> out(ids.size(), 0);
    out.resize(RankMembers(ids.data(), ids.size(), mask.data(), rank.data(),
                           out.data()));
    EXPECT_EQ(out, expected);
    std::vector<Word> bits(expected_bits.size(), 0);
    RankMembersToBits(ids.data(), ids.size(), mask.data(), rank.data(),
                      bits.data());
    EXPECT_EQ(bits, expected_bits);
  }
  // No ids, and ids that are all outside the mask.
  const Word mask[1] = {0xf0};
  const std::uint32_t rank[1] = {0};
  const ElementId outside[3] = {0, 3, 8};
  ElementId out[3] = {};
  EXPECT_EQ(RankMembers(outside, 0, mask, rank, out), 0u);
  EXPECT_EQ(RankMembers(outside, 3, mask, rank, out), 0u);
}

TEST(WordKernelsTest, HardwarePopcountIsActiveWhenTheCpuHasIt) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("popcnt")) {
    EXPECT_EQ(WordKernelName(), "portable");
    return;
  }
  const bool vpopcntdq = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512vpopcntdq");
  EXPECT_EQ(WordKernelName(), vpopcntdq ? "avx512-vpopcntdq" : "popcnt");
#else
  EXPECT_EQ(WordKernelName(), "portable");
#endif
}

TEST(WordKernelsTest, Bmi2GatherIsActiveWhenTheCpuHasIt) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("popcnt")) {
    EXPECT_EQ(GatherKernelName(), "portable");
  } else {
    EXPECT_EQ(GatherKernelName(),
              __builtin_cpu_supports("bmi2") ? "bmi2" : "popcnt");
  }
#else
  EXPECT_EQ(GatherKernelName(), "portable");
#endif
}

}  // namespace
}  // namespace streamsc
