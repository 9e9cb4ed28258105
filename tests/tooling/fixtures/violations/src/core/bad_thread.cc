#include <condition_variable>
#include <future>
#include <thread>
// A comment naming std::thread or std::async must not trip it.
namespace streamsc {
inline unsigned long GuessInParallel() {
  const unsigned cores = std::thread::hardware_concurrency();
  unsigned long total = cores;
  std::thread worker([&] { ++total; });
  std::jthread other([&] { ++total; });
  std::condition_variable done;
  worker.join();
  auto later = std::async([] { return 1ul; });
  return total + later.get();
}
}  // namespace streamsc
