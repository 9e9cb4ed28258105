#include <thread>
namespace streamsc::serve {
// The daemon owns its acceptor and worker threads.
inline void Accept() {
  std::thread acceptor([] {});
  acceptor.join();
}
}  // namespace streamsc::serve
