#include <map>
namespace streamsc {
inline int Distinct(const int* keys, int n) {
  std::map<int, int> counts;
  for (int i = 0; i < n; ++i) ++counts[keys[i]];
  return static_cast<int>(counts.size());
}
}  // namespace streamsc
