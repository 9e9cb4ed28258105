#include "instance/serialization.h"
#include "storage/mmap_set_stream.h"
namespace streamsc {
// The storage layer decides how an instance file is opened.
inline std::size_t InstanceSets(const std::string& path) {
  if (IsBinaryInstanceFile(path)) return MmapSetStream(path).num_sets();
  const StatusOr<SetSystem> loaded = LoadSetSystem(path);
  return loaded.ok() ? loaded->num_sets() : 0;
}
}  // namespace streamsc
