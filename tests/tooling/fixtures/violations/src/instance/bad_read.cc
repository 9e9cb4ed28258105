#include <fstream>
#include <string>
// A comment naming std::ifstream must not trip it, nor "std::ifstream".
namespace streamsc {
inline std::string FirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}
inline bool Readable(const std::string& path) {
  return std :: basic_ifstream<char>(path).good();
}
}  // namespace streamsc
