#include <condition_variable>
#include <thread>
namespace streamsc {
// The engine's own pool may start and wait on threads.
inline void StartPool() {
  std::condition_variable work;
  std::thread worker([] {});
  worker.join();
}
}  // namespace streamsc
