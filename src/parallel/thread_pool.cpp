#include "fftgrad/parallel/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "fftgrad/analysis/check.h"
#include "fftgrad/analysis/schedule_stress.h"
#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/telemetry/profiler.h"
#include "fftgrad/util/annotated_mutex.h"

namespace fftgrad::parallel {
namespace {

/// Pool metric handles; immortal registry objects, safe to cache.
struct PoolMetrics {
  telemetry::Counter& tasks;
  telemetry::Gauge& queue_depth;
  telemetry::Histogram& task_latency_us;

  static PoolMetrics& get() {
    static PoolMetrics m{telemetry::MetricsRegistry::global().counter("pool.tasks"),
                         telemetry::MetricsRegistry::global().gauge("pool.queue_depth"),
                         telemetry::MetricsRegistry::global().histogram("pool.task_latency_us")};
    return m;
  }
};

/// Whether this thread runs the parallel primitives' chunks inline: set
/// for good by worker_loop, and for a scope by ScopedInlineChunks.
thread_local bool t_inline_chunks = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::LockGuard<util::Mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // Per-task accounting only when metrics collection is switched on; the
  // extra wrapper (one clock read at enqueue, one at start) must not tax
  // the packing primitives' hot loop in normal runs.
  if (telemetry::MetricsRegistry::global().enabled()) {
    PoolMetrics& m = PoolMetrics::get();
    m.tasks.add(1.0);
    const auto enqueued = std::chrono::steady_clock::now();
    task = [inner = std::move(task), enqueued] {
      PoolMetrics::get().task_latency_us.observe(
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - enqueued)
              .count());
      inner();
    };
  }
  // While the sampling profiler attributes, a task carries its submitter's
  // innermost span and rank, so samples taken on the worker credit the
  // stage that asked for the work.
  if (telemetry::Profiler::attributing()) {
    task = [inner = std::move(task), site = telemetry::Profiler::current_site()] {
      const telemetry::ScopedSampleSite adopt(site);
      inner();
    };
  }
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    util::LockGuard<util::Mutex> lock(queue_mutex_);
    queue_.push_back(std::move(packaged));
    PoolMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

std::packaged_task<void()> ThreadPool::take_task_locked() {
  FFTGRAD_ASSERT_HELD(queue_mutex_);
  const std::uint64_t stress = analysis::schedule_stress_seed();
  if (stress != 0 && queue_.size() > 1) {
    const std::size_t at = static_cast<std::size_t>(
        analysis::stress_pick(reinterpret_cast<std::uintptr_t>(this), queue_.size()));
    std::packaged_task<void()> task = std::move(queue_[at]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(at));
    return task;
  }
  std::packaged_task<void()> task = std::move(queue_.front());
  queue_.pop_front();
  return task;
}

void ThreadPool::worker_loop() {
  t_inline_chunks = true;
  // One relaxed load when the host-time profiler was never configured.
  telemetry::Profiler::register_current_thread();
  for (;;) {
    std::packaged_task<void()> task;
    {
      util::UniqueLock<util::Mutex> lock(queue_mutex_);
      // Manual wait loop (not wait(lock, pred)): the predicate lambda would
      // be analyzed as a separate function with no capability, while the
      // loop keeps the guarded reads inside this annotated scope.
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = take_task_locked();
    }
    task();
  }
}

bool runs_chunks_inline() { return t_inline_chunks; }

ScopedInlineChunks::ScopedInlineChunks(bool on) : previous_(t_inline_chunks) {
  t_inline_chunks = previous_ || on;
}

ScopedInlineChunks::~ScopedInlineChunks() { t_inline_chunks = previous_; }

}  // namespace fftgrad::parallel
