#include "stream/set_stream.h"

#include "util/check.h"

namespace streamsc {

bool SetStream::Next(StreamItem* item) {
  STREAMSC_DCHECK(passes_ > 0 && "BeginPass() before Next()");
  if (cursor_ >= num_sets()) return false;
  *item = ItemAt(cursor_++);
  return true;
}

VectorSetStream::VectorSetStream(const SetSystem& system, StreamOrder order,
                                 Rng* rng)
    : system_(system), order_kind_(order), rng_(rng) {
  order_.reserve(system.num_sets());
  for (SetId i = 0; i < system.num_sets(); ++i) order_.push_back(i);
  if (order_kind_ != StreamOrder::kAdversarial) {
    // A debug-only assert here would dereference nullptr in release
    // builds; random orders without randomness are a caller bug that must
    // fail loudly in every build mode.
    STREAMSC_CHECK(rng_ != nullptr,
                   "VectorSetStream: random orders need a non-null Rng");
    rng_->Shuffle(order_);
  }
}

std::size_t VectorSetStream::universe_size() const {
  return system_.universe_size();
}

std::size_t VectorSetStream::num_sets() const { return system_.num_sets(); }

void VectorSetStream::BeginPass() {
  if (order_kind_ == StreamOrder::kRandomEachPass && passes() > 0) {
    rng_->Shuffle(order_);
  }
  SetStream::BeginPass();
}

}  // namespace streamsc
