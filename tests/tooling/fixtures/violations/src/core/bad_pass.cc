#include "stream/set_stream.h"
// A comment naming stream.BeginPass() or Next(&item) must not trip it.
namespace streamsc {
inline std::size_t CountItems(SetStream& stream) {
  stream.BeginPass();
  StreamItem item;
  std::size_t items = 0;
  while (stream.Next(&item)) ++items;
  return items;
}
}  // namespace streamsc
