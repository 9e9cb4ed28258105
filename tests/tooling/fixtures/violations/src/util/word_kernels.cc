#include <cstdint>
// The kernel home may count bits with the builtin directly.
namespace streamsc {
inline int Count(std::uint64_t w) { return __builtin_popcountll(w); }
}  // namespace streamsc
