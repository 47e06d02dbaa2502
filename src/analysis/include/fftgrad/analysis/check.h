// Violation reporting for the correctness-analysis layer.
//
// Every checker in fftgrad/analysis (CheckedMutex lock-order tracking,
// FFTGRAD_ASSERT_HELD) funnels detected problems through
// report_violation(). The default handler prints the diagnostic to stderr
// and aborts — a concurrency invariant violation is never a recoverable
// condition in production code — but tests install a counting handler so
// violations can be asserted on without killing the process.
#pragma once

#include <cstddef>
#include <string>

#include "fftgrad/analysis/config.h"

namespace fftgrad::analysis {

/// kind is a short stable tag ("lock-order", "assert-held",
/// "mutex-misuse"); message carries the specifics.
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

#else

inline void set_violation_handler(ViolationHandler) {}
inline std::size_t violation_count() { return 0; }
inline void reset_violation_count() {}
inline void report_violation(const char*, const std::string&) {}

#endif

}  // namespace fftgrad::analysis
