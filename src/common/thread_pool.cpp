#include "common/thread_pool.h"

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "common/ensure.h"

namespace geored {

namespace {

// The swap guard for the process-wide pool: global() materializes the pool
// under it, set_global_thread_count replaces the pool under it. The
// reference global() returns intentionally outlives the critical section —
// that is exactly why set_global_thread_count refuses to swap a busy pool.
Mutex g_global_pool_mutex;
std::unique_ptr<ThreadPool> g_global_pool GEORED_GUARDED_BY(g_global_pool_mutex);

// Set while this thread runs a chunk body, so nested data-parallel calls
// can detect they are already inside parallel work and run inline.
thread_local bool t_in_chunk = false;

// parallel_reduce_sum always splits [0, n) into this many chunks so the
// summation tree is a function of n alone — the thread-count-invariance
// contract. 64 keeps per-chunk work ≥ 32 elements at the min_parallel
// thresholds call sites use (2048) and caps usable reduce parallelism.
constexpr std::size_t kReduceChunks = 64;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_chunks(std::size_t n, const std::function<void(std::size_t)>& chunk_fn) {
  GEORED_ENSURE(chunk_fn, "run_chunks requires a callable chunk function");
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t c = 0; c < n; ++c) chunk_fn(c);
    return;
  }
  std::exception_ptr error;
  {
    const MutexLock lock(mutex_);
    GEORED_CHECK(task_ == nullptr, "nested or concurrent run_chunks on one ThreadPool");
    task_ = &chunk_fn;
    num_chunks_ = n;
    next_chunk_ = 0;
    completed_ = 0;
    error_ = nullptr;
    task_cv_.notify_all();
    drain();  // the caller participates
    while (completed_ != num_chunks_) done_cv_.wait(mutex_);
    task_ = nullptr;
    num_chunks_ = 0;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::drain() {
  while (next_chunk_ < num_chunks_) {
    const std::size_t chunk = next_chunk_++;
    const std::function<void(std::size_t)>* task = task_;
    // The chunk body runs outside the critical section; `task` is a pointer
    // copied under the mutex and the pointee is immutable for the task's
    // lifetime (run_chunks keeps the function alive until completion).
    mutex_.unlock();
    std::exception_ptr thrown;
    const bool was_in_chunk = t_in_chunk;
    t_in_chunk = true;
    try {
      (*task)(chunk);
    } catch (...) {
      thrown = std::current_exception();
    }
    t_in_chunk = was_in_chunk;
    mutex_.lock();
    if (thrown && !error_) error_ = thrown;
    ++completed_;
    if (completed_ == num_chunks_) done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  const MutexLock lock(mutex_);
  for (;;) {
    while (!stop_ && next_chunk_ >= num_chunks_) task_cv_.wait(mutex_);
    if (stop_) return;
    drain();
  }
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("GEORED_THREADS")) {
    try {
      const long long parsed = std::stoll(env);
      // Parsed values clamp to [1, 1024]; only unparsable strings fall
      // through to the hardware default.
      if (parsed < 1) return 1;
      return static_cast<std::size_t>(parsed > 1024 ? 1024 : parsed);
    } catch (const std::exception&) {
      // Unparsable values fall through to the hardware default.
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

bool ThreadPool::idle() {
  const MutexLock lock(mutex_);
  return task_ == nullptr;
}

bool ThreadPool::in_parallel_chunk() { return t_in_chunk; }

ThreadPool& ThreadPool::global() {
  const MutexLock lock(g_global_pool_mutex);
  if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>();
  return *g_global_pool;
}

void ThreadPool::set_global_thread_count(std::size_t threads) {
  const MutexLock lock(g_global_pool_mutex);
  if (g_global_pool) {
    // A long-lived reference handed out by global() would dangle if the old
    // pool were destroyed mid-task; fail loudly instead.
    GEORED_CHECK(g_global_pool->idle(),
                 "set_global_thread_count while parallel work is in flight");
  }
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_parallel) {
  GEORED_ENSURE(body, "parallel_for requires a callable body");
  if (n == 0) return;
  // Nested inside a chunk the pool is already busy: run sequentially, which
  // is byte-identical to the single-chunk path.
  if (n < min_parallel || ThreadPool::in_parallel_chunk()) {
    body(0, n);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  const std::size_t chunks = pool.thread_count();
  if (chunks == 1) {
    body(0, n);
    return;
  }
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    if (begin < end) body(begin, end);
  };
  // A std::function built from a reference_wrapper never allocates.
  pool.run_chunks(chunks, std::ref(run_chunk));
}

double parallel_reduce_sum(std::size_t n,
                           const std::function<double(std::size_t, std::size_t)>& body,
                           std::size_t min_parallel) {
  GEORED_ENSURE(body, "parallel_reduce_sum requires a callable body");
  if (n == 0) return 0.0;
  if (n < min_parallel) return body(0, n);
  // Fixed chunk count: boundaries depend only on n, never on the pool size,
  // and partials combine in ascending chunk order — so the summation tree
  // (and the result's last bits) is identical at any thread count, nested
  // or top-level. Threads only decide where each chunk runs.
  double partials[kReduceChunks];
  const auto chunk_sum = [&](std::size_t c) {
    const std::size_t begin = c * n / kReduceChunks;
    const std::size_t end = (c + 1) * n / kReduceChunks;
    partials[c] = begin < end ? body(begin, end) : 0.0;
  };
  ThreadPool& pool = ThreadPool::global();
  const std::size_t threads = std::min(pool.thread_count(), kReduceChunks);
  if (threads == 1 || ThreadPool::in_parallel_chunk()) {
    for (std::size_t c = 0; c < kReduceChunks; ++c) chunk_sum(c);
  } else {
    pool.run_chunks(threads, [&](std::size_t t) {
      const std::size_t first = t * kReduceChunks / threads;
      const std::size_t last = (t + 1) * kReduceChunks / threads;
      for (std::size_t c = first; c < last; ++c) chunk_sum(c);
    });
  }
  double total = 0.0;
  for (const double partial : partials) total += partial;
  return total;
}

}  // namespace geored
