// Annotated mutex wrappers and REQUIRES-aware lock guards.
//
// libstdc++'s std::mutex / std::shared_mutex carry no thread-safety
// capability attributes, so code locking them directly is invisible to
// Clang Thread Safety Analysis. These thin wrappers restore the static
// story: util::Mutex and util::SharedMutex are drop-in replacements whose
// methods are ACQUIRE/RELEASE/TRY_ACQUIRE-annotated, and LockGuard /
// UniqueLock / SharedLockGuard are the project's scoped-capability guards
// (templated so the same guards serve util::Mutex and util::SharedMutex).
//
// In FFTGRAD_ANALYSIS builds (debug and the sanitizer presets) util::Mutex
// also records its owner, and FFTGRAD_ASSERT_HELD (fftgrad/analysis/check.h)
// reads it: the runtime check that a `*_locked()` helper's caller holds the
// lock, on any compiler. It catches a lock dropped and re-taken around such
// a call while every other thread is parked, which is no data race and so
// invisible to TSan. Lock-order inversions and unlocks by a non-owner are
// left to TSan. Release builds keep no state beyond the wrapped mutex.
//
// Every mutex member in src/ must be one of the annotated types —
// fftgrad_lint's `unannotated-mutex` rule flags a bare std::mutex outside
// the wrapper homes listed (with rationale) in tools/fftgrad_lint.allow.
//
// UniqueLock is the condition-wait guard: it satisfies BasicLockable, so
// `std::condition_variable_any::wait(lock)` works, and its lock()/unlock()
// are annotated, so the analysis tracks the capability across an early
// release (e.g. SimCluster::barrier_wait drops the lock before emitting
// trace spans). Condition predicates are written as explicit
// `while (!cond) cv.wait(lock);` loops rather than wait(lock, pred): the
// analysis treats a predicate lambda as a separate unannotated function,
// while the manual loop keeps every guarded read inside the annotated
// caller's scope.
#pragma once

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "fftgrad/util/config.h"
#include "fftgrad/util/thread_annotations.h"

namespace fftgrad::util {

/// Annotated std::mutex that knows its owner in FFTGRAD_ANALYSIS builds.
/// The bodies carry FFTGRAD_NO_THREAD_SAFETY_ANALYSIS because they
/// manipulate the unannotated std primitive (the sanctioned use of the
/// escape hatch).
class FFTGRAD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FFTGRAD_ACQUIRE() FFTGRAD_NO_THREAD_SAFETY_ANALYSIS {
    mutex_.lock();
#if FFTGRAD_ANALYSIS
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }
  bool try_lock() FFTGRAD_TRY_ACQUIRE(true) FFTGRAD_NO_THREAD_SAFETY_ANALYSIS {
    if (!mutex_.try_lock()) return false;
#if FFTGRAD_ANALYSIS
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
    return true;
  }
  void unlock() FFTGRAD_RELEASE() FFTGRAD_NO_THREAD_SAFETY_ANALYSIS {
#if FFTGRAD_ANALYSIS
    // Cleared while still held, so it cannot erase the next owner's id.
    owner_.store(std::thread::id(), std::memory_order_relaxed);
#endif
    mutex_.unlock();
  }

#if FFTGRAD_ANALYSIS
  bool held_by_current_thread() const {
    return owner_.load(std::memory_order_relaxed) == std::this_thread::get_id();
  }
#endif

 private:
  std::mutex mutex_;
#if FFTGRAD_ANALYSIS
  std::atomic<std::thread::id> owner_{};
#endif
};

/// Annotated std::shared_mutex: exclusive lock for writers, shared lock
/// for readers (e.g. the metrics registry's lookup-or-create vs export).
class FFTGRAD_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() FFTGRAD_ACQUIRE() FFTGRAD_NO_THREAD_SAFETY_ANALYSIS { mutex_.lock(); }
  bool try_lock() FFTGRAD_TRY_ACQUIRE(true) FFTGRAD_NO_THREAD_SAFETY_ANALYSIS {
    return mutex_.try_lock();
  }
  void unlock() FFTGRAD_RELEASE() FFTGRAD_NO_THREAD_SAFETY_ANALYSIS { mutex_.unlock(); }

  void lock_shared() FFTGRAD_ACQUIRE_SHARED() FFTGRAD_NO_THREAD_SAFETY_ANALYSIS {
    mutex_.lock_shared();
  }
  bool try_lock_shared() FFTGRAD_TRY_ACQUIRE_SHARED(true) FFTGRAD_NO_THREAD_SAFETY_ANALYSIS {
    return mutex_.try_lock_shared();
  }
  void unlock_shared() FFTGRAD_RELEASE_SHARED() FFTGRAD_NO_THREAD_SAFETY_ANALYSIS {
    mutex_.unlock_shared();
  }

 private:
  std::shared_mutex mutex_;
};

/// Scoped exclusive lock held for the full scope (std::lock_guard shape).
/// Works with any annotated exclusive-capable mutex type.
template <typename MutexT>
class FFTGRAD_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(MutexT& mutex) FFTGRAD_ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }
  ~LockGuard() FFTGRAD_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  MutexT& mutex_;
};

/// Scoped exclusive lock with early release / re-acquire (std::unique_lock
/// shape, minus deferred construction). BasicLockable, so it is the guard
/// to pass to std::condition_variable_any::wait.
template <typename MutexT>
class FFTGRAD_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(MutexT& mutex) FFTGRAD_ACQUIRE(mutex) : mutex_(mutex), owns_(true) {
    mutex_.lock();
  }
  ~UniqueLock() FFTGRAD_RELEASE() {
    if (owns_) mutex_.unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() FFTGRAD_ACQUIRE() {
    mutex_.lock();
    owns_ = true;
  }
  void unlock() FFTGRAD_RELEASE() {
    mutex_.unlock();
    owns_ = false;
  }
  bool owns_lock() const { return owns_; }

 private:
  MutexT& mutex_;
  bool owns_;
};

/// Scoped shared (reader) lock for SharedMutex-shaped types.
template <typename MutexT>
class FFTGRAD_SCOPED_CAPABILITY SharedLockGuard {
 public:
  explicit SharedLockGuard(MutexT& mutex) FFTGRAD_ACQUIRE_SHARED(mutex) : mutex_(mutex) {
    mutex_.lock_shared();
  }
  // Generic release: a scoped capability's destructor releases whatever
  // mode its constructor acquired (the canonical clang scoped-shared form).
  ~SharedLockGuard() FFTGRAD_RELEASE() { mutex_.unlock_shared(); }

  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  MutexT& mutex_;
};

}  // namespace fftgrad::util
