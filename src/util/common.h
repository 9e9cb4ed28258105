#ifndef STREAMSC_UTIL_COMMON_H_
#define STREAMSC_UTIL_COMMON_H_

#include <cstddef>
#include <cstdint>

/// \file common.h
/// Project-wide scalar type aliases.
///
/// The paper works with a universe [n] = {1, ..., n} and a collection of m
/// sets. We use zero-based element ids {0, ..., n-1} and set ids
/// {0, ..., m-1} throughout.

// The library requires C++20: the set substrate uses <bit> and std::span,
// which are absent in C++17 and earlier. The build pins -std=c++20; this
// guard turns a stray-toolchain misconfiguration into a clear diagnostic
// instead of a cascade of template errors.
static_assert(__cplusplus >= 202002L,
              "streamsc requires C++20 (<bit>, std::span); "
              "compile with -std=c++20 or newer");

namespace streamsc {

/// Identifier of an element of the universe [n]. Zero-based.
using ElementId = std::uint32_t;

/// Identifier of a set in a set system. Zero-based.
using SetId = std::uint32_t;

/// A count of elements / sets (always fits the universe).
using Count = std::uint64_t;

/// Logical space in bytes as charged by the space-accounting layer.
using Bytes = std::uint64_t;

/// Sentinel for "no set".
inline constexpr SetId kInvalidSetId = ~SetId{0};

/// Sentinel for "no element".
inline constexpr ElementId kInvalidElementId = ~ElementId{0};

}  // namespace streamsc

#endif  // STREAMSC_UTIL_COMMON_H_
