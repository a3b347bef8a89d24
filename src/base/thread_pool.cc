#include "src/base/thread_pool.h"

#include "src/base/assert.h"

namespace hwprof {

ThreadPool::ThreadPool(unsigned workers) {
  HWPROF_CHECK(workers >= 1);
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  work_ready_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

unsigned ThreadPool::DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // shutdown with nothing left to do
    }
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    job();
    lock.lock();
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) {
      idle_.notify_all();
    }
  }
}

}  // namespace hwprof
