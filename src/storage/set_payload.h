#ifndef STREAMSC_STORAGE_SET_PAYLOAD_H_
#define STREAMSC_STORAGE_SET_PAYLOAD_H_

#include <cstddef>
#include <vector>

#include "instance/set_system.h"
#include "util/common.h"
#include "util/function_ref.h"
#include "util/set_view.h"

/// \file set_payload.h
/// The one encoder of a set's on-disk payload, shared by the sscb1 writer
/// (storage/binary_instance_writer.h) and the sscd1 writer
/// (dynamic/delta_log.h), and the one check their readers apply to it.
/// Both formats store a set in one of the two shapes of
/// storage/binary_format.h — ceil(n/64) dense words, or sorted 32-bit ids
/// zero-padded to 8 bytes — chosen by SetSystem's default density rule.

namespace streamsc {

/// Encodes set payloads, reusing one id buffer across calls. Not
/// thread-safe; one per writer.
class SetPayloadEncoder {
 public:
  /// Sink for the payload bytes; returns false when a write fails.
  using WriteFn = FunctionRef<bool(const void*, std::size_t)>;

  /// True iff a set of \p count members over \p universe_size elements is
  /// stored sparse: its density is strictly below
  /// SetSystem::kDefaultSparsityThreshold.
  static bool StoresSparse(Count count, std::size_t universe_size) {
    return static_cast<double>(count) <
           SetSystem::kDefaultSparsityThreshold *
               static_cast<double>(universe_size);
  }

  /// Writes \p set's payload in the sparse (\p sparse) or dense shape
  /// through \p write. A view already in the stored shape is written
  /// straight from its span; a dense view stored sparse gathers its ids
  /// into the reused buffer, and a sparse view stored dense is
  /// materialized once. Returns false as soon as a write fails.
  bool Write(SetView set, bool sparse, WriteFn write);

 private:
  std::vector<ElementId> ids_;
};

/// Where a payload's member count is stated: an sscb1 index entry or an
/// sscd1 record header (named in CheckSetPayload's popcount message).
enum class PayloadCountSource { kIndex, kRecord };

/// Checks one stored payload against the invariants of
/// storage/binary_format.h and, when it holds them, points \p *view at
/// it. \p payload is the payload's first byte, 8-byte aligned, with the
/// full stored size (pad included) inside the mapping — the caller's
/// index or record check. \p count is the member count \p source claims.
/// Dense: no bit beyond the universe and a popcount equal to \p count.
/// Sparse: ids in range and strictly increasing, pad bytes zero, so a set
/// has one stored form. Returns null when the payload is well formed,
/// else what is wrong.
const char* CheckSetPayload(const std::byte* payload, bool sparse,
                            Count count, std::size_t universe_size,
                            PayloadCountSource source, SetView* view);

}  // namespace streamsc

#endif  // STREAMSC_STORAGE_SET_PAYLOAD_H_
