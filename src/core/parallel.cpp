#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hitopk {
namespace {

// True while the current thread is executing parallel_for iterations; nested
// calls then run inline instead of re-entering the shared pool.
thread_local bool in_parallel_region = false;

// One parallel_for invocation: a contiguous index range split into blocks
// claimed via an atomic cursor, so faster workers steal the remaining blocks.
struct Job {
  size_t begin = 0;
  size_t end = 0;
  size_t block = 1;
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<size_t> cursor{0};
  std::exception_ptr error;
  std::mutex error_mutex;

  void run_blocks() {
    const bool was_nested = in_parallel_region;
    in_parallel_region = true;
    for (;;) {
      const size_t b = cursor.fetch_add(block, std::memory_order_relaxed);
      const size_t lo = begin + b;
      if (lo >= end) break;
      const size_t hi = std::min(end, lo + block);
      try {
        for (size_t i = lo; i < hi; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
    in_parallel_region = was_nested;
  }
};

// Lazily started, process-lifetime worker pool.  Workers sleep on a
// condition variable between jobs; the submitting thread always works on the
// job too, so a 1-thread configuration never touches the pool.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int threads() {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

  void set_threads(int n) {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_ = n < 1 ? 1 : n;
  }

  void run(Job& job) {
    // One job at a time: concurrent top-level parallel_for calls from
    // different threads take turns on the pool.
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ensure_workers(threads_ - 1);
      // Workers beyond the current width stay parked, so shrinking the
      // configured thread count after the pool has grown takes effect.
      job_workers_ = threads_ - 1;
      job_ = &job;
      ++generation_;
    }
    wake_.notify_all();
    job.run_blocks();
    // The caller ran out of blocks to claim.  Publish "no more claims" and
    // wait for workers still inside a claimed block: `job` lives on the
    // caller's stack, so nothing may touch it once run() returns.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ = nullptr;
      done_.wait(lock, [&] { return busy_ == 0; });
    }
  }

 private:
  Pool() {
    int n = static_cast<int>(std::thread::hardware_concurrency());
    if (const char* env = std::getenv("HITOPK_THREADS")) {
      const int parsed = std::atoi(env);
      if (parsed > 0) n = parsed;
    }
    threads_ = n < 1 ? 1 : n;
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void ensure_workers(int target) {  // mutex_ held
    while (static_cast<int>(workers_.size()) < target) {
      const int index = static_cast<int>(workers_.size());
      workers_.emplace_back([this, index] { worker_loop(index); });
    }
  }

  void worker_loop(int index) {
    uint64_t seen = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
          return stop_ || (job_ != nullptr && generation_ != seen);
        });
        if (stop_) return;
        seen = generation_;
        if (index >= job_workers_) continue;  // parked for this job
        job = job_;
        ++busy_;
      }
      job->run_blocks();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --busy_;
      }
      done_.notify_all();
    }
  }

  std::mutex run_mutex_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  uint64_t generation_ = 0;
  int job_workers_ = 0;  // workers allowed to join the current job
  int busy_ = 0;
  bool stop_ = false;
  int threads_ = 1;
};

}  // namespace

int parallel_threads() { return Pool::instance().threads(); }

void set_parallel_threads(int n) { Pool::instance().set_threads(n); }

void parallel_for(size_t begin, size_t end,
                  const std::function<void(size_t)>& fn, size_t grain) {
  if (begin >= end) return;
  const size_t count = end - begin;
  const int threads = Pool::instance().threads();
  if (grain == 0) grain = 1;
  if (threads <= 1 || count <= grain || in_parallel_region) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  Job job;
  job.begin = begin;
  job.end = end;
  // Aim for a few blocks per thread (load balance) without dropping below
  // the caller's grain size (per-block overhead).
  const size_t target_blocks = static_cast<size_t>(threads) * 4;
  job.block = std::max(grain, (count + target_blocks - 1) / target_blocks);
  job.fn = &fn;

  Pool::instance().run(job);

  if (job.error) std::rethrow_exception(job.error);
}

void parallel_chunks(size_t count,
                     const std::function<void(size_t, size_t)>& fn) {
  if (count <= kParallelChunk) {
    if (count > 0) fn(0, count);
    return;
  }
  parallel_for(0, parallel_chunk_count(count), [&](size_t c) {
    const size_t lo = c * kParallelChunk;
    fn(lo, std::min(count, lo + kParallelChunk));
  });
}

}  // namespace hitopk
