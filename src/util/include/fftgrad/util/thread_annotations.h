// Clang Thread Safety Analysis attribute macros (abseil-style).
//
// Under clang every macro expands to the corresponding
// `__attribute__((...))`; under every other compiler they expand to
// nothing, so the annotations are pure documentation there and cannot
// change code generation or class layout anywhere. The `thread-safety`
// CMake preset compiles src/ with clang and
// `-Werror=thread-safety -Wthread-safety-beta`, turning every violated
// annotation into a build error (see scripts/thread_safety_check.sh and
// DESIGN.md "Static concurrency & determinism analysis").
//
// Conventions used across the tree:
//  * Lock types (util::Mutex, util::SharedMutex) are
//    FFTGRAD_CAPABILITY("mutex") with ACQUIRE/RELEASE/TRY_ACQUIRE on
//    their methods; their bodies wrap unannotated std primitives and carry
//    FFTGRAD_NO_THREAD_SAFETY_ANALYSIS (the one sanctioned use: functions
//    that implement locking primitives themselves).
//  * Data a mutex strictly protects is FFTGRAD_GUARDED_BY(mutex_) /
//    FFTGRAD_PT_GUARDED_BY(mutex_); helpers that assume the lock is held
//    are FFTGRAD_REQUIRES(mutex_) (pair with FFTGRAD_ASSERT_HELD for the
//    runtime check on non-clang builds).
//  * State ordered by a protocol the analysis cannot express (barrier
//    slots written before / read after a rendezvous, single-writer thread
//    buffers) stays unannotated with a comment naming the real
//    happens-before edge — a wrong GUARDED_BY is worse than none.
#pragma once

#if defined(__clang__)
#define FFTGRAD_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FFTGRAD_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// A type whose instances can be held/released (a lock).
#define FFTGRAD_CAPABILITY(x) FFTGRAD_THREAD_ANNOTATION(capability(x))

/// An RAII type that holds a capability for its lifetime.
#define FFTGRAD_SCOPED_CAPABILITY FFTGRAD_THREAD_ANNOTATION(scoped_lockable)

/// Data member protected by the given capability.
#define FFTGRAD_GUARDED_BY(x) FFTGRAD_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose pointee is protected by the given capability.
#define FFTGRAD_PT_GUARDED_BY(x) FFTGRAD_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (must not hold it on entry).
#define FFTGRAD_ACQUIRE(...) \
  FFTGRAD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define FFTGRAD_ACQUIRE_SHARED(...) \
  FFTGRAD_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (must hold it on entry).
#define FFTGRAD_RELEASE(...) \
  FFTGRAD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define FFTGRAD_RELEASE_SHARED(...) \
  FFTGRAD_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define FFTGRAD_TRY_ACQUIRE(...) \
  FFTGRAD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define FFTGRAD_TRY_ACQUIRE_SHARED(...) \
  FFTGRAD_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

/// Caller must hold the capability (exclusively / at least shared).
#define FFTGRAD_REQUIRES(...) \
  FFTGRAD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define FFTGRAD_REQUIRES_SHARED(...) \
  FFTGRAD_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself,
/// or would deadlock / invert an order if entered with it held).
#define FFTGRAD_EXCLUDES(...) FFTGRAD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Lock-order declaration between two capabilities.
#define FFTGRAD_ACQUIRED_BEFORE(...) \
  FFTGRAD_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define FFTGRAD_ACQUIRED_AFTER(...) \
  FFTGRAD_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Runtime assertion that the capability is held (the static counterpart
/// of FFTGRAD_ASSERT_HELD in fftgrad/analysis/check.h).
#define FFTGRAD_ASSERT_CAPABILITY(x) \
  FFTGRAD_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the given capability.
#define FFTGRAD_RETURN_CAPABILITY(x) FFTGRAD_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Reserved for the lock
/// wrappers' own bodies (they manipulate unannotated std primitives);
/// anywhere else, prefer fixing the annotation.
#define FFTGRAD_NO_THREAD_SAFETY_ANALYSIS \
  FFTGRAD_THREAD_ANNOTATION(no_thread_safety_analysis)
