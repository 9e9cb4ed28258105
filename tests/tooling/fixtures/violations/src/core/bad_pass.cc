#include "stream/set_stream.h"
// A comment naming stream.BeginPass(), Next(&item) or ItemAt(0) must not
// trip it.
namespace streamsc {
inline std::size_t CountItems(SetStream& stream) {
  stream.BeginPass();
  StreamItem item;
  std::size_t items = 0;
  while (stream.Next(&item)) ++items;
  return items;
}
inline SetId FirstId(const SetStream& stream) {
  return stream.ItemAt(0).id;
}
}  // namespace streamsc
