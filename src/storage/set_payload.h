#ifndef STREAMSC_STORAGE_SET_PAYLOAD_H_
#define STREAMSC_STORAGE_SET_PAYLOAD_H_

#include <cstddef>
#include <vector>

#include "util/common.h"
#include "util/function_ref.h"
#include "util/set_view.h"

/// \file set_payload.h
/// The one encoder of a set's on-disk payload, shared by the sscb1 writer
/// (storage/binary_instance_writer.h) and the sscd1 writer
/// (dynamic/delta_log.h). Both formats store a set in one of the two
/// shapes of storage/binary_format.h — ceil(n/64) dense words, or sorted
/// 32-bit ids zero-padded to 8 bytes — chosen by the same density rule
/// SetSystem uses.

namespace streamsc {

/// Encodes set payloads, reusing one id buffer across calls. Not
/// thread-safe; one per writer.
class SetPayloadEncoder {
 public:
  /// Sink for the payload bytes; returns false when a write fails.
  using WriteFn = FunctionRef<bool(const void*, std::size_t)>;

  /// True iff a set of \p count members over \p universe_size elements is
  /// stored sparse: its density is strictly below \p sparsity_threshold.
  static bool StoresSparse(Count count, std::size_t universe_size,
                           double sparsity_threshold) {
    return static_cast<double>(count) <
           sparsity_threshold * static_cast<double>(universe_size);
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

}  // namespace streamsc

#endif  // STREAMSC_STORAGE_SET_PAYLOAD_H_
