// Wall-clock timing helpers for benches and the trainer's compute-time
// accounting. WallTimer measures real elapsed time; use comm::SimClock for
// the simulated network time (the two are added in the trainer).
#pragma once

#include <chrono>

#include "fftgrad/util/units.h"

namespace fftgrad::util {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Dimensionally-typed elapsed time: wall seconds, which have no
  /// conversion into simulated-clock arithmetic.
  WallSeconds elapsed() const { return WallSeconds(seconds()); }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fftgrad::util
