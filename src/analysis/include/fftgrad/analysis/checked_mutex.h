// CheckedMutex: a drop-in std::mutex replacement that, in analysis builds,
// knows its owner and participates in process-wide lock-order tracking.
//
//  * FFTGRAD_ASSERT_HELD(m) aborts (via the violation handler) when the
//    calling thread does not hold m — the runtime analogue of Clang's
//    ASSERT_CAPABILITY, usable on any compiler.
//  * Every lock() registers held-before edges in a global lock-order graph;
//    an acquisition that would close a cycle (an AB/BA inversion — a latent
//    deadlock even if this particular run interleaved safely) is reported
//    before the thread blocks on it.
//  * unlock() from a thread that does not own the mutex is reported.
//
// Release builds compile all of this to a plain std::mutex wrapper with no
// extra state. Code holding a CheckedMutex across a condition wait must use
// std::condition_variable_any (the native-handle-free variant), since
// CheckedMutex is not std::mutex itself.
//
// Both branches are a Clang Thread Safety CAPABILITY with annotated
// lock/try_lock/unlock, so GUARDED_BY/REQUIRES written against a
// CheckedMutex member is enforced by the `thread-safety` preset in every
// build mode's class shape. Use the guards in fftgrad/util/annotated_mutex.h
// (util::LockGuard / util::UniqueLock) rather than the std:: ones — the
// std guards are not scoped capabilities, so the analysis cannot see them.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>

#include "fftgrad/util/config.h"
#include "fftgrad/util/thread_annotations.h"

namespace fftgrad::analysis {

#if FFTGRAD_ANALYSIS

class FFTGRAD_CAPABILITY("mutex") CheckedMutex {
 public:
  /// `name` must have static storage; it labels violation diagnostics.
  explicit CheckedMutex(const char* name = "mutex");
  ~CheckedMutex();

  CheckedMutex(const CheckedMutex&) = delete;
  CheckedMutex& operator=(const CheckedMutex&) = delete;

  void lock() FFTGRAD_ACQUIRE();
  bool try_lock() FFTGRAD_TRY_ACQUIRE(true);
  void unlock() FFTGRAD_RELEASE();

  bool held_by_current_thread() const {
    return owner_.load(std::memory_order_relaxed) == std::this_thread::get_id();
  }
  const char* name() const { return name_; }
  std::uint32_t order_id() const { return id_; }

 private:
  void note_acquired();

  std::mutex mutex_;
  std::atomic<std::thread::id> owner_{};
  const char* name_;
  std::uint32_t id_;
};

namespace detail {
void assert_held(const CheckedMutex& mutex, const char* expr, const char* file, int line);
}  // namespace detail

/// Forget all recorded lock-order edges (between tests that intentionally
/// provoke inversions; never needed in production code).
void reset_lock_order_graph();

#else  // !FFTGRAD_ANALYSIS

class FFTGRAD_CAPABILITY("mutex") CheckedMutex {
 public:
  explicit CheckedMutex(const char* = "mutex") {}

  CheckedMutex(const CheckedMutex&) = delete;
  CheckedMutex& operator=(const CheckedMutex&) = delete;

  void lock() FFTGRAD_ACQUIRE() FFTGRAD_NO_THREAD_SAFETY_ANALYSIS { mutex_.lock(); }
  bool try_lock() FFTGRAD_TRY_ACQUIRE(true) FFTGRAD_NO_THREAD_SAFETY_ANALYSIS {
    return mutex_.try_lock();
  }
  void unlock() FFTGRAD_RELEASE() FFTGRAD_NO_THREAD_SAFETY_ANALYSIS { mutex_.unlock(); }

 private:
  std::mutex mutex_;
};

inline void reset_lock_order_graph() {}

#endif

}  // namespace fftgrad::analysis

#if FFTGRAD_ANALYSIS
#define FFTGRAD_ASSERT_HELD(m) \
  ::fftgrad::analysis::detail::assert_held((m), #m, __FILE__, __LINE__)
#else
#define FFTGRAD_ASSERT_HELD(m) ((void)0)
#endif
