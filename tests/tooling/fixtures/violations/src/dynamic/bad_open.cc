#include "instance/serialization.h"
#include "storage/mmap_set_stream.h"
// A comment naming LoadSetSystem(path) must not trip it.
namespace streamsc {
inline std::size_t TextBaseSets(const std::string& path) {
  const StatusOr<SetSystem> loaded = LoadSetSystem(path);
  return loaded.ok() ? loaded->num_sets() : 0;
}
}  // namespace streamsc
