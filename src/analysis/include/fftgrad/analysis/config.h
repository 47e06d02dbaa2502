// Build-mode switch for the correctness-analysis instrumentation.
//
// FFTGRAD_ANALYSIS is 1 when the annotated race/invariant checker is
// compiled in (sanitizer presets, debug builds, or -DFFTGRAD_ANALYSIS=ON)
// and 0 otherwise. Release builds compile every annotation to nothing:
// CheckedMutex collapses to a plain std::mutex wrapper, FFTGRAD_ASSERT_HELD
// to (void)0, and the schedule-stress seed to a constant 0 so stress
// branches fold away.
//
// The flag must be consistent across every translation unit of a build
// (it changes class layouts); it is therefore set tree-wide by CMake, not
// per target.
#pragma once

#if !defined(FFTGRAD_ANALYSIS)
#if !defined(NDEBUG)
#define FFTGRAD_ANALYSIS 1
#else
#define FFTGRAD_ANALYSIS 0
#endif
#endif
