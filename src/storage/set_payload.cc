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

const char* CheckSetPayload(const std::byte* payload, bool sparse,
                            Count count, std::size_t universe_size,
                            PayloadCountSource source, SetView* view) {
  if (!sparse) {
    using Word = DynamicBitset::Word;
    const Word* words = reinterpret_cast<const Word*>(payload);
    // Tail invariant: bits beyond n must be zero, or CountSet /
    // projection results would silently include phantom elements.
    const std::size_t word_count = (universe_size + 63) / 64;
    if (universe_size % 64 != 0 && word_count > 0) {
      const Word tail_mask = ~Word{0} << (universe_size % 64);
      if ((words[word_count - 1] & tail_mask) != 0) {
        return "dense tail bits beyond the universe are set";
      }
    }
    const DenseSpan span(words, universe_size);
    if (span.CountSet() != count) {
      return source == PayloadCountSource::kIndex
                 ? "payload popcount mismatches the index count"
                 : "payload popcount mismatches the record count";
    }
    *view = span;
    return nullptr;
  }
  // Sorted, unique, in-range: everything SparseSpan's O(k) operations
  // assume. Validating once here is what makes serving the payload
  // verbatim safe.
  const ElementId* ids = reinterpret_cast<const ElementId*>(payload);
  for (Count i = 0; i < count; ++i) {
    if (ids[i] >= universe_size) return "element out of range";
    if (i > 0 && ids[i] <= ids[i - 1]) {
      return "elements not strictly increasing";
    }
  }
  const std::uint64_t raw = count * sizeof(ElementId);
  const std::uint64_t padded = sscb1::SparsePayloadBytes(count);
  for (std::uint64_t b = raw; b < padded; ++b) {
    if (payload[b] != std::byte{0}) return "nonzero sparse payload padding";
  }
  *view = SparseSpan(ids, count, universe_size);
  return nullptr;
}

}  // namespace streamsc
