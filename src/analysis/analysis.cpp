#include "fftgrad/analysis/check.h"
#include "fftgrad/analysis/schedule_stress.h"

#if FFTGRAD_ANALYSIS

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstddef>

#include "fftgrad/telemetry/metrics.h"

namespace fftgrad::analysis {
namespace {

// ---------------------------------------------------------------------------
// Violation reporting

std::atomic<ViolationHandler> g_handler{nullptr};
std::atomic<std::size_t> g_violations{0};

void default_handler(const char* kind, const std::string& message) {
  std::fprintf(stderr, "fftgrad-analysis: [%s] %s\n", kind, message.c_str());
  std::abort();
}

// ---------------------------------------------------------------------------
// Schedule stress

std::atomic<std::uint64_t> g_stress_seed{0};
thread_local std::uint64_t t_stress_decisions = 0;

}  // namespace

void set_violation_handler(ViolationHandler handler) {
  g_handler.store(handler, std::memory_order_relaxed);
}

std::size_t violation_count() { return g_violations.load(std::memory_order_relaxed); }

void reset_violation_count() { g_violations.store(0, std::memory_order_relaxed); }

void report_violation(const char* kind, const std::string& message) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  {
    // Registry objects are immortal; the disabled path is one relaxed load.
    static telemetry::Counter& violations =
        telemetry::MetricsRegistry::global().counter("analysis.violations");
    violations.add(1.0);
  }
  ViolationHandler handler = g_handler.load(std::memory_order_relaxed);
  if (handler == nullptr) handler = default_handler;
  handler(kind, message);
}

namespace detail {

void assert_held(const util::Mutex& mutex, const char* expr, const char* file, int line) {
  if (mutex.held_by_current_thread()) return;
  report_violation("assert-held", std::string(file) + ":" + std::to_string(line) +
                                      ": FFTGRAD_ASSERT_HELD(" + expr +
                                      ") failed: calling thread does not hold it");
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Schedule stress

std::uint64_t schedule_stress_seed() {
  return g_stress_seed.load(std::memory_order_relaxed);
}

void set_schedule_stress_seed(std::uint64_t seed) {
  g_stress_seed.store(seed, std::memory_order_relaxed);
}

std::uint64_t stress_pick(std::uint64_t salt, std::uint64_t bound) {
  const std::uint64_t seed = schedule_stress_seed();
  return mix64(seed ^ mix64(salt) ^ ++t_stress_decisions) % bound;
}

ScheduleStressScope::ScheduleStressScope(std::uint64_t seed)
    : previous_(schedule_stress_seed()) {
  set_schedule_stress_seed(seed);
}

ScheduleStressScope::~ScheduleStressScope() { set_schedule_stress_seed(previous_); }

}  // namespace fftgrad::analysis

#else  // !FFTGRAD_ANALYSIS

// Keep the archive non-empty in Release builds.
namespace fftgrad::analysis {
namespace {
const int kAnalysisCompiledOut = 0;
}
const int* analysis_compiled_out_marker() { return &kAnalysisCompiledOut; }
}  // namespace fftgrad::analysis

#endif  // FFTGRAD_ANALYSIS
