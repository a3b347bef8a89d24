// Dependency-free fixed-size thread pool for the host-side analysis tools.
//
// The simulator itself stays single-threaded (bit-exact reproducibility);
// the pool exists for embarrassingly parallel *host* work — per-shard trace
// decode, report rendering — where determinism is recovered by an
// order-independent merge, not by execution order.
//
// Submission order is preserved per worker pickup but nothing else is
// guaranteed; callers must not depend on completion order. (`--jobs 1`
// never builds a pool: the decode engine replays inline instead.)

#ifndef HWPROF_SRC_BASE_THREAD_POOL_H_
#define HWPROF_SRC_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hwprof {

class ThreadPool {
 public:
  // Spawns `workers` (at least 1) threads.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `job` for the next free worker.
  void Submit(std::function<void()> job);

  // Blocks until every submitted job has finished. Safe to call repeatedly;
  // the pool remains usable afterwards.
  void WaitIdle();

  // `--jobs` default: the hardware concurrency, never less than 1.
  static unsigned DefaultJobs();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // popped but not yet finished
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_BASE_THREAD_POOL_H_
