#include <fstream>
#include <string>
namespace streamsc {
// The non-POSIX mapping fallback reads the whole file with an ifstream.
inline bool ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<bool>(in);
}
}  // namespace streamsc
