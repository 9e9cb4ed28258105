#include "stream/stream_adapters.h"

#include "util/check.h"

namespace streamsc {
namespace {

// Shifts an inner stream's item id into the combined id space.
StreamItem Shifted(StreamItem item, std::size_t offset) {
  item.id = static_cast<SetId>(item.id + offset);
  return item;
}

}  // namespace

// ---- ConcatSetStream -------------------------------------------------------

ConcatSetStream::ConcatSetStream(SetStream& first, SetStream& second)
    : first_(first), second_(second) {
  STREAMSC_DCHECK(first_.universe_size() == second_.universe_size());
}

std::size_t ConcatSetStream::universe_size() const {
  return first_.universe_size();
}

std::size_t ConcatSetStream::num_sets() const {
  return first_.num_sets() + second_.num_sets();
}

void ConcatSetStream::BeginPass() {
  first_.BeginPass();
  second_.BeginPass();
  in_second_ = false;
  ++passes_;
}

bool ConcatSetStream::Next(StreamItem* item) {
  if (!in_second_) {
    if (first_.Next(item)) return true;
    in_second_ = true;
  }
  if (second_.Next(item)) {
    *item = Shifted(*item, first_.num_sets());
    return true;
  }
  return false;
}

// ---- InterleaveSetStream ---------------------------------------------------

InterleaveSetStream::InterleaveSetStream(SetStream& first, SetStream& second)
    : first_(first), second_(second) {
  STREAMSC_DCHECK(first_.universe_size() == second_.universe_size());
}

std::size_t InterleaveSetStream::universe_size() const {
  return first_.universe_size();
}

std::size_t InterleaveSetStream::num_sets() const {
  return first_.num_sets() + second_.num_sets();
}

void InterleaveSetStream::BeginPass() {
  first_.BeginPass();
  second_.BeginPass();
  first_done_ = false;
  second_done_ = false;
  next_is_second_ = false;
  ++passes_;
}

bool InterleaveSetStream::Next(StreamItem* item) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool take_second = next_is_second_;
    next_is_second_ = !next_is_second_;
    if (take_second && !second_done_) {
      if (second_.Next(item)) {
        *item = Shifted(*item, first_.num_sets());
        return true;
      }
      second_done_ = true;
    } else if (!take_second && !first_done_) {
      if (first_.Next(item)) return true;
      first_done_ = true;
    }
  }
  return false;
}

}  // namespace streamsc
