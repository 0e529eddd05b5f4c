#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace vrdf::util {

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = n;
  std::exception_ptr error;
  const auto claim = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  const std::size_t count = std::min(threads, n);
  std::vector<std::thread> workers;
  workers.reserve(count);
  try {
    while (workers.size() < count) {
      workers.emplace_back(claim);
    }
  } catch (...) {
    // A thread that cannot start (std::system_error, or no memory for its
    // state) must not strand the started ones: the caller works the rest.
    claim();
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace vrdf::util
