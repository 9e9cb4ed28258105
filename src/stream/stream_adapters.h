#ifndef STREAMSC_STREAM_STREAM_ADAPTERS_H_
#define STREAMSC_STREAM_STREAM_ADAPTERS_H_

#include <cstdint>

#include "stream/set_stream.h"

/// \file stream_adapters.h
/// Stream composition adapters:
///
/// * ConcatSetStream — streams A's items then B's (the two-party
///   Alice-then-Bob composition behind the Theorem 1 simulation).
/// * InterleaveSetStream — alternates items from two streams (a different
///   two-party arrival pattern; with VectorSetStream::kRandomOnce halves
///   it approximates the D_SC^rnd random partition arrival).
///
/// All adapters renumber items to a single global id space [0, m_total):
/// the first stream's ids come first, then the second's shifted by
/// first.num_sets().

namespace streamsc {

/// Alice-then-Bob concatenation of two streams over the same universe.
/// The inner streams' pass counters advance with every outer pass.
class ConcatSetStream : public SetStream {
 public:
  /// Both streams must agree on universe_size(); neither is owned.
  ConcatSetStream(SetStream& first, SetStream& second);

  std::size_t universe_size() const override;
  std::size_t num_sets() const override;
  void BeginPass() override;
  bool Next(StreamItem* item) override;
  std::uint64_t passes() const override { return passes_; }

 private:
  SetStream& first_;
  SetStream& second_;
  bool in_second_ = false;
  std::uint64_t passes_ = 0;
};

/// Alternating merge of two streams over the same universe: a, b, a, b, …
/// (continuing with the longer stream once the shorter is exhausted).
class InterleaveSetStream : public SetStream {
 public:
  InterleaveSetStream(SetStream& first, SetStream& second);

  std::size_t universe_size() const override;
  std::size_t num_sets() const override;
  void BeginPass() override;
  bool Next(StreamItem* item) override;
  std::uint64_t passes() const override { return passes_; }

 private:
  SetStream& first_;
  SetStream& second_;
  bool first_done_ = false;
  bool second_done_ = false;
  bool next_is_second_ = false;
  std::uint64_t passes_ = 0;
};

}  // namespace streamsc

#endif  // STREAMSC_STREAM_STREAM_ADAPTERS_H_
