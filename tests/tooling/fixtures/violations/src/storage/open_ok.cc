#include "instance/serialization.h"
#include "storage/mmap_set_stream.h"
namespace streamsc {
// The storage layer decides how an instance file is opened.
inline std::size_t TextSets(const std::string& path) {
  const StatusOr<SetSystem> loaded = LoadSetSystem(path);
  return loaded.ok() ? loaded->num_sets() : 0;
}
}  // namespace streamsc
