#include "util/set_view.h"

#include <algorithm>

namespace streamsc {

bool operator==(const SetView& a, const SetView& b) {
  if (!a.valid() || !b.valid()) return a.valid() == b.valid();
  if (a.size() != b.size()) return false;
  if (a.rep() == b.rep()) {
    if (a.tagged_ == b.tagged_ && a.count_ == b.count_) return true;
    if (a.is_dense_rep()) {
      const DenseSpan x = a.dense_span(), y = b.dense_span();
      return std::equal(x.WordData(), x.WordData() + x.WordCount(),
                        y.WordData());
    }
    const SparseSpan x = a.sparse_span(), y = b.sparse_span();
    return x.CountSet() == y.CountSet() &&
           std::equal(x.elements(), x.elements() + x.CountSet(),
                      y.elements());
  }
  // Mixed representations: equal cardinality plus sparse ⊆ dense.
  const SetView& sparse_view = a.is_dense_rep() ? b : a;
  const SetView& dense_view = a.is_dense_rep() ? a : b;
  const SparseSpan sparse = sparse_view.sparse_span();
  const DenseSpan dense = dense_view.dense_span();
  if (sparse.CountSet() != dense.CountSet()) return false;
  bool subset = true;
  sparse.ForEach([&](ElementId e) { subset = subset && dense.Test(e); });
  return subset;
}

}  // namespace streamsc
