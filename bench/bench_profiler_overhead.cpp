// Host-time profiler overhead: the two numbers the profiler's cost
// contract promises (fftgrad/telemetry/profiler.h).
//
//   1. Disabled path: a TraceSpan with no consumer armed costs one relaxed
//      atomic load — indistinguishable from the bare workload loop.
//   2. Enabled path: sampling at the default 97 Hz taxes the instrumented
//      workload by well under 2% (the handler writes one ring slot per
//      sample; the per-span cost is two thread-local stack writes).
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "bench_common.h"
#include "fftgrad/telemetry/profiler.h"
#include "fftgrad/telemetry/trace.h"

namespace {

/// Deterministic float workload, heavy enough that one call is ~a few
/// hundred ns: the span overhead is measured against real work, the way
/// instrumentation sits in the codecs.
float spin_workload(std::uint32_t& state) {
  float acc = 0.0f;
  for (int i = 0; i < 64; ++i) {
    state = state * 1664525u + 1013904223u;
    acc += static_cast<float>(state >> 8) * 1e-9f;
  }
  return acc;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds per iteration of the workload, optionally wrapped in a span.
double timed_loop(std::size_t iters, bool with_span, float& sink) {
  std::uint32_t state = 12345u;
  const double start = now_s();
  for (std::size_t i = 0; i < iters; ++i) {
    if (with_span) {
      fftgrad::telemetry::TraceSpan span("bench.profiled_loop", "bench");
      sink += spin_workload(state);
    } else {
      sink += spin_workload(state);
    }
  }
  return (now_s() - start) / static_cast<double>(iters);
}

}  // namespace

int main() {
  using namespace fftgrad;

  // Calibrate so each measured phase runs ~0.25 s: long enough to average
  // over scheduler noise and (in the profiled phase) to collect dozens of
  // 97 Hz samples, short enough for the 1-core CI container.
  float sink = 0.0f;
  std::size_t iters = 4096;
  while (timed_loop(iters, false, sink) * static_cast<double>(iters) < 0.02 &&
         iters < (1u << 24)) {
    iters *= 2;
  }
  const double target_s = 0.25;
  const double per_iter = timed_loop(iters, false, sink);
  iters = static_cast<std::size_t>(target_s / per_iter) + 1;

  const double bare_s = timed_loop(iters, false, sink);
  const double disabled_s = timed_loop(iters, true, sink);

  telemetry::Profiler& profiler = telemetry::Profiler::global();
  const bool started = profiler.start(telemetry::Profiler::kDefaultHz);
  const double profiled_s = timed_loop(iters, true, sink);
  if (started) profiler.stop();
  const telemetry::Profiler::Stats stats = profiler.stats();

  const double span_disabled_ns = (disabled_s - bare_s) * 1e9;
  const double span_profiled_ns = (profiled_s - bare_s) * 1e9;
  const double tax_pct = disabled_s > 0.0 ? (profiled_s / disabled_s - 1.0) * 100.0 : 0.0;

  bench::print_header("Profiler overhead (cost contract of fftgrad/telemetry/profiler.h)");
  util::TableWriter table({"phase", "s_per_iter", "span_cost_ns"});
  table.set_double_format("%.4g");
  table.add_row({"bare loop", bare_s, 0.0});
  table.add_row({"span, profiler off", disabled_s, span_disabled_ns});
  table.add_row({"span, sampling 97 Hz", profiled_s, span_profiled_ns});
  bench::print_table(table);
  std::printf("samples=%llu dropped=%llu threads=%llu (sink=%g)\n",
              static_cast<unsigned long long>(stats.samples),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.threads),
              static_cast<double>(sink));
  std::printf("profiler tax on instrumented workload: %.2f%% (contract: < 2%%)\n", tax_pct);
  return 0;
}
