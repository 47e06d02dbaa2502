// Build-mode switch for the correctness-analysis instrumentation.
//
// FFTGRAD_ANALYSIS is 1 when the annotated race/invariant checker is
// compiled in (sanitizer presets, debug builds, or -DFFTGRAD_ANALYSIS=ON)
// and 0 otherwise. Release builds compile every annotation to nothing:
// util::Mutex keeps no owner (a plain std::mutex wrapper),
// FFTGRAD_ASSERT_HELD is (void)0, the causality tracker becomes no-op
// stubs, and the schedule-stress seed is a constant 0 so stress branches
// fold away; the run ledger's alerts are logged but do not abort.
//
// It lives in util so every layer reads one definition, telemetry's run
// ledger included (analysis links telemetry, so telemetry cannot include
// analysis headers). The flag must be consistent across every translation
// unit of a build (it changes class layouts); it is therefore set
// tree-wide by CMake, not per target.
#pragma once

#if !defined(FFTGRAD_ANALYSIS)
#if !defined(NDEBUG)
#define FFTGRAD_ANALYSIS 1
#else
#define FFTGRAD_ANALYSIS 0
#endif
#endif
