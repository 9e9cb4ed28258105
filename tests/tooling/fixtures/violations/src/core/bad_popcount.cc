#include <bit>
#include <cstdint>
#include <immintrin.h>
#include <x86intrin.h>
// A comment naming std::popcount, _pext_u64 or _mm512_popcnt_epi64 must not
// trip the linter, nor a commented-out include:
// #include <immintrin.h>
namespace streamsc {
inline int Bits(std::uint64_t w) { return std::popcount(w); }
inline int Low(std::uint64_t w) { return __builtin_popcountll(w & 0xff); }
inline std::uint64_t Take(std::uint64_t x, std::uint64_t m) {
  return _pext_u64(x, m);
}
inline __m512i Wide(__m512i v) { return _mm512_popcnt_epi64(v); }
inline __m256i Half(__m256i v) { return _mm256_popcnt_epi32(v); }
inline __m128i Narrow(__m128i v) { return _mm_popcnt_epi64(v); }
}  // namespace streamsc
