// A small, work-stealing-free thread pool and the deterministic data-parallel
// primitives built on it.
//
// Design constraints (see docs/performance.md):
//   * Determinism. parallel_for splits [0, n) into one contiguous chunk per
//     pool thread; chunk boundaries depend only on n and the thread count,
//     and each chunk is processed sequentially, so side effects land
//     bit-reproducibly run-to-run at a fixed thread count (at one thread,
//     exactly the sequential loop). parallel_reduce_sum goes further: it
//     always splits into a fixed chunk count, so the summation tree depends
//     only on n and the result is bit-identical at ANY thread count —
//     threads merely decide where each chunk runs.
//   * No work stealing. Chunks are claimed from a shared counter under the
//     pool mutex; which thread runs a chunk never affects where its result
//     lands, so scheduling jitter cannot change output.
//   * Thread count. The global pool is sized by the GEORED_THREADS
//     environment variable, defaulting to std::thread::hardware_concurrency.
//     With one thread the pool spawns no workers and everything runs inline
//     on the caller.
//
// Nested parallelism runs inline: when a chunk body itself calls
// parallel_for / parallel_reduce_sum, the nested call executes sequentially
// on the calling thread, because the pool's threads are already committed
// to the outer task. This keeps outer-level parallelism (e.g. FleetManager
// running one group per task) deadlock-free and bit-identical to the fully
// sequential execution: a nested parallel_for is a single in-order chunk,
// and a nested parallel_reduce_sum walks the same fixed chunk grid in
// ascending order. Directly calling run_chunks from inside a chunk remains
// an error.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace geored {

class ThreadPool {
 public:
  /// Creates a pool that runs work on `threads` threads in total (the
  /// calling thread participates, so `threads - 1` workers are spawned).
  /// 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute work, including the caller of run_chunks.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// True when no run_chunks task is in flight on this pool. Safe to call
  /// from any thread, including from inside a chunk body (the pool mutex is
  /// released while chunk bodies run, so this cannot self-deadlock).
  bool idle() GEORED_EXCLUDES(mutex_);

  /// Runs chunk_fn(c) for every c in [0, n) across the pool; the calling
  /// thread participates. Blocks until all chunks finish. If any chunk
  /// throws, the first exception (in completion order) is rethrown here
  /// after the remaining chunks have run.
  void run_chunks(std::size_t n, const std::function<void(std::size_t)>& chunk_fn)
      GEORED_EXCLUDES(mutex_);

  /// GEORED_THREADS environment override if set (clamped to [1, 1024]),
  /// otherwise std::thread::hardware_concurrency() (at least 1).
  static std::size_t default_thread_count();

  /// True while the calling thread is executing a run_chunks chunk (on any
  /// pool). parallel_for / parallel_reduce_sum consult this to run nested
  /// parallelism inline instead of deadlocking on the busy pool.
  static bool in_parallel_chunk();

  /// The process-wide pool used by parallel_for / parallel_reduce_sum,
  /// created on first use with default_thread_count() threads.
  static ThreadPool& global();

  /// Replaces the global pool with one of `threads` threads (0 = default).
  /// Test/bench knob: must not be called while parallel work is in flight
  /// (enforced — replacing a busy pool throws InternalError rather than
  /// destroying a pool that callers still hold a reference to).
  static void set_global_thread_count(std::size_t threads);

 private:
  void worker_loop() GEORED_EXCLUDES(mutex_);
  /// Claims and runs chunks while any remain. Holds mutex_ on entry and
  /// exit; temporarily releases it around each chunk body (which is why a
  /// chunk body may safely call idle(), but never run_chunks on this pool —
  /// the busy/idle protocol below would deadlock the caller on itself).
  void drain() GEORED_REQUIRES(mutex_);

  // The task protocol, all guarded by mutex_: run_chunks publishes
  // task_/num_chunks_ and resets the shared chunk-claim counter next_chunk_;
  // workers and the caller claim chunks under the mutex and bump completed_
  // after each; the caller observes completion via done_cv_ and retires the
  // task by nulling task_. stop_ is the workers' shutdown signal.
  Mutex mutex_;
  CondVar task_cv_;  // workers: work available or stop
  CondVar done_cv_;  // caller: all chunks completed
  const std::function<void(std::size_t)>* task_ GEORED_GUARDED_BY(mutex_) = nullptr;
  std::size_t num_chunks_ GEORED_GUARDED_BY(mutex_) = 0;
  std::size_t next_chunk_ GEORED_GUARDED_BY(mutex_) = 0;
  std::size_t completed_ GEORED_GUARDED_BY(mutex_) = 0;
  bool stop_ GEORED_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ GEORED_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
};

/// Runs body(begin, end) over contiguous chunks covering [0, n), one chunk
/// per global-pool thread. Runs inline (one chunk) when n < min_parallel or
/// the pool has a single thread. Deterministic as described above. The call
/// itself allocates nothing when `body` is passed as std::ref(callable);
/// a closure too large for std::function's small buffer (two pointers in
/// libstdc++) is copied to the heap instead, and such short-lived blocks
/// can fragment the heap enough to raise a caller's peak RSS.
void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_parallel = 1);

/// Sums body(begin, end) partials over a FIXED grid of contiguous chunks
/// covering [0, n), combining them in ascending chunk order. Chunk
/// boundaries depend only on n, so the result is bit-identical at any
/// thread count (and under nested/inline execution) — the determinism pin
/// the perf-smoke CI asserts at bench scale. When n < min_parallel the call
/// is exactly `body(0, n)`, byte-identical to the sequential accumulation.
double parallel_reduce_sum(std::size_t n,
                           const std::function<double(std::size_t, std::size_t)>& body,
                           std::size_t min_parallel = 1);

}  // namespace geored
