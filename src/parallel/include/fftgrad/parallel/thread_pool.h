// Fixed-size worker pool with a blocking task queue.
//
// This is the CPU substitute for the paper's GPU execution substrate: the
// packing, selection, and quantization primitives are expressed as
// data-parallel loops over index ranges (see parallel_for.h) and scheduled
// here.
//
// Concurrency analysis: the queue mutex is a util::Mutex, so debug and
// sanitizer builds track its owner and FFTGRAD_ASSERT_HELD checks that
// take_task_locked() runs under it (fftgrad/analysis/check.h). Under the
// deterministic-schedule stress mode (fftgrad/analysis/schedule_stress.h)
// workers dequeue a seeded-pseudorandom element instead of the FIFO front,
// turning task execution order into a per-seed permutation; correct
// callers must be insensitive to the permutation.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "fftgrad/util/annotated_mutex.h"
#include "fftgrad/util/thread_annotations.h"

namespace fftgrad::parallel {

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency() (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue `task`; the future resolves when it has run. Exceptions thrown
  /// by the task propagate through the future.
  std::future<void> submit(std::function<void()> task);

  /// Process-wide default pool, sized to the hardware.
  static ThreadPool& global();

 private:
  void worker_loop();
  /// Remove and return the next task. FIFO normally; a seeded permutation
  /// pick under schedule stress. Requires queue_mutex_ held (enforced
  /// statically by the annotation, at runtime by FFTGRAD_ASSERT_HELD).
  std::packaged_task<void()> take_task_locked() FFTGRAD_REQUIRES(queue_mutex_);

  std::vector<std::thread> workers_;
  util::Mutex queue_mutex_;
  std::deque<std::packaged_task<void()>> queue_ FFTGRAD_GUARDED_BY(queue_mutex_);
  // condition_variable_any: util::Mutex is Lockable but not std::mutex.
  std::condition_variable_any cv_;
  bool stopping_ FFTGRAD_GUARDED_BY(queue_mutex_) = false;
};

/// True when the calling thread runs the parallel primitives' chunks in
/// order on itself instead of queueing them on a pool. A pool's workers
/// always do: had every worker queued subtasks and blocked on them, none
/// would be left to run them. Any other thread does inside a
/// ScopedInlineChunks.
bool runs_chunks_inline();

/// While alive, and when constructed with `on`, makes the calling thread
/// run the parallel primitives' chunks inline, as a pool worker does; the
/// destructor restores the previous mark. For a thread that already has a
/// core of its own, such as one of cluster_train's rank threads when the
/// ranks fill the pool: queued, its chunks would only wait behind the
/// other threads' chunks.
class ScopedInlineChunks {
 public:
  explicit ScopedInlineChunks(bool on = true);
  ~ScopedInlineChunks();

  ScopedInlineChunks(const ScopedInlineChunks&) = delete;
  ScopedInlineChunks& operator=(const ScopedInlineChunks&) = delete;

 private:
  bool previous_;
};

}  // namespace fftgrad::parallel
