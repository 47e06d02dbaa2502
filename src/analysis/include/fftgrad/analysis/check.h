// Violation reporting for the correctness-analysis layer.
//
// Every checker in fftgrad/analysis (FFTGRAD_ASSERT_HELD, the causality
// tracker, the critical-path validator) funnels detected problems through
// report_violation(). The default handler prints the diagnostic to stderr
// and aborts — a concurrency invariant violation is never a recoverable
// condition in production code — but tests install a counting handler so
// violations can be asserted on without killing the process.
//
// FFTGRAD_ASSERT_HELD(m) reports an "assert-held" violation when the
// calling thread does not hold the util::Mutex m: the runtime analogue of
// Clang's ASSERT_CAPABILITY, usable on any compiler. Put it at the top of
// every FFTGRAD_REQUIRES(m) `*_locked()` helper. It reads the owner that
// util::Mutex records in FFTGRAD_ANALYSIS builds and compiles to nothing
// in Release builds.
#pragma once

#include <cstddef>
#include <string>

#include "fftgrad/util/annotated_mutex.h"
#include "fftgrad/util/config.h"

namespace fftgrad::analysis {

/// kind is a short stable tag ("assert-held", "causality", ...); message
/// carries the specifics.
using ViolationHandler = void (*)(const char* kind, const std::string& message);

#if FFTGRAD_ANALYSIS

/// Install a handler (nullptr restores the abort-on-violation default).
void set_violation_handler(ViolationHandler handler);

/// Count of violations reported since process start / last reset. Bumped
/// before the handler runs, so counting works even with the default
/// aborting handler (useful with EXPECT_DEATH).
std::size_t violation_count();
void reset_violation_count();

/// Report through the installed handler. Used by the checkers; test code
/// may call it directly to exercise a handler.
void report_violation(const char* kind, const std::string& message);

namespace detail {
void assert_held(const util::Mutex& mutex, const char* expr, const char* file, int line);
}  // namespace detail

#else

inline void set_violation_handler(ViolationHandler) {}
inline std::size_t violation_count() { return 0; }
inline void reset_violation_count() {}
inline void report_violation(const char*, const std::string&) {}

#endif

}  // namespace fftgrad::analysis

#if FFTGRAD_ANALYSIS
#define FFTGRAD_ASSERT_HELD(m) \
  ::fftgrad::analysis::detail::assert_held((m), #m, __FILE__, __LINE__)
#else
#define FFTGRAD_ASSERT_HELD(m) ((void)0)
#endif
