#include <cstdint>
namespace streamsc {
inline unsigned Rank(std::uint32_t w) { return __builtin_popcount(w); }
}  // namespace streamsc
