// Deterministic-schedule stress mode.
//
// Races hide in particular interleavings; TSan finds them only when the
// schedule actually produces the access pattern, and production schedules
// are depressingly repetitive. Stress mode perturbs the two schedulers in
// the framework from one process-wide seed:
//
//  * ThreadPool workers pop a seeded-pseudorandom queue element instead of
//    the FIFO front, so task execution order becomes a per-seed
//    permutation;
//  * SimCluster ranks spin through a seeded number of yields before each
//    barrier, perturbing arrival order.
//
// Re-running a test under N seeds explores N schedule families with zero
// sanitizer overhead, and a failing seed reproduces: the pool's pick
// sequence is a pure function of (seed, worker thread pick counter).
// Correctness claim under test: results must be bit-identical across every
// seed — anything schedule-dependent is a bug.
//
// Release builds hard-wire the seed to 0 (off), so the hooks in the pool
// and the barrier fold to nothing.
#pragma once

#include <cstdint>

#include "fftgrad/util/config.h"

namespace fftgrad::analysis {

/// SplitMix64 step: the mixer behind every stress decision (and reusable
/// by structure-aware fuzzers wanting the same cheap determinism).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

#if FFTGRAD_ANALYSIS

/// Process-wide stress seed; 0 = stress off (the default).
std::uint64_t schedule_stress_seed();
void set_schedule_stress_seed(std::uint64_t seed);

/// Pick in [0, bound) from the stress seed, `salt` (caller identity), and a
/// thread-local decision counter. bound must be > 0.
std::uint64_t stress_pick(std::uint64_t salt, std::uint64_t bound);

/// RAII seed scope for tests: set on entry, restore on exit.
class ScheduleStressScope {
 public:
  explicit ScheduleStressScope(std::uint64_t seed);
  ~ScheduleStressScope();

  ScheduleStressScope(const ScheduleStressScope&) = delete;
  ScheduleStressScope& operator=(const ScheduleStressScope&) = delete;

 private:
  std::uint64_t previous_;
};

#else  // !FFTGRAD_ANALYSIS

inline constexpr std::uint64_t schedule_stress_seed() { return 0; }
inline void set_schedule_stress_seed(std::uint64_t) {}
inline std::uint64_t stress_pick(std::uint64_t, std::uint64_t) { return 0; }

class ScheduleStressScope {
 public:
  explicit ScheduleStressScope(std::uint64_t) {}
};

#endif

}  // namespace fftgrad::analysis
