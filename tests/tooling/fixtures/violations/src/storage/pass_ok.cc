#include "stream/set_stream.h"
namespace streamsc {
// Stream implementations and their readers may drive passes directly.
inline bool FirstItem(SetStream& stream, StreamItem* item) {
  stream.BeginPass();
  return stream.Next(item);
}
inline std::size_t Drain(SetStream& stream) {
  StreamItem item;
  std::size_t items = 0;
  while (stream.Next(&item)) ++items;
  return items;
}
inline SetId LastId(const SetStream& stream) {
  return stream.ItemAt(stream.num_sets() - 1).id;
}
}  // namespace streamsc
