#include <bit>
#include <cstdint>
// A comment naming std::popcount or _pext_u64 must not trip the linter.
namespace streamsc {
inline int Bits(std::uint64_t w) { return std::popcount(w); }
inline int Low(std::uint64_t w) { return __builtin_popcountll(w & 0xff); }
inline std::uint64_t Take(std::uint64_t x, std::uint64_t m) {
  return _pext_u64(x, m);
}
}  // namespace streamsc
