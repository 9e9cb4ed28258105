#include "storage/set_payload.h"

#include "storage/binary_format.h"

namespace streamsc {

bool SetPayloadEncoder::Write(SetView set, bool sparse, WriteFn write) {
  if (!sparse) {
    if (set.is_dense_rep()) {
      const DenseSpan words = set.dense_span();
      return write(words.WordData(), words.ByteSize());
    }
    const DynamicBitset words = set.ToDense();
    return write(words.WordData(), words.ByteSize());
  }
  SparseSpan ids;
  if (set.is_dense_rep()) {
    ids_.clear();
    set.AppendIndicesInto(ids_);
    ids = SparseSpan(ids_.data(), ids_.size(), set.size());
  } else {
    ids = set.sparse_span();
  }
  const std::uint64_t raw = ids.ByteSize();
  const std::uint64_t padded = sscb1::SparsePayloadBytes(ids.CountSet());
  const std::uint64_t zero = 0;
  return write(ids.elements(), static_cast<std::size_t>(raw)) &&
         (padded == raw ||
          write(&zero, static_cast<std::size_t>(padded - raw)));
}

}  // namespace streamsc
