#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <unordered_map>
// A comment naming std::unordered_map must not trip it, nor "std::set".
namespace streamsc {
inline int CountRepeats(const int* keys, int n) {
  std::unordered_map<int, int> seen;
  std::map<int, int> order;
  std :: set<int> distinct;
  std::multiset<int> all(keys, keys + n);
  for (int i = 0; i < n; ++i) ++seen[keys[i]];
  int merged[4];
  std::set_union(keys, keys + 1, keys, keys + 1, std::begin(merged));
  return static_cast<int>(seen.size() + order.size() + distinct.size() +
                          all.size());
}
}  // namespace streamsc
