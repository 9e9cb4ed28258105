#include <cstdint>
// A comment naming __POPCNT__ must not trip it, nor the string below.
namespace streamsc {
#if defined(__POPCNT__)
inline int CountWidth() { return 64; }
#elif defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)
inline int CountWidth() { return 512; }
#endif
#ifdef __BMI2__
inline int GatherWidth() { return 64; }
#endif
#if defined(__x86_64__) && \
    !defined(__SSE4_2__)
inline int Legacy() { return 1; }
#endif
inline const char* IsaName() { return "__AVX2__"; }
#if defined(__x86_64__)
inline int Arch() { return 1; }
#endif
}  // namespace streamsc
