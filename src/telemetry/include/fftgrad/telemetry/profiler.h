// Host-time sampling profiler with telemetry-span attribution.
//
// Every other observability layer in this codebase (spans, ledger,
// critical path) measures the *simulated* clock; this one answers where
// the host CPU actually burns cycles. A SIGPROF interval timer samples
// the process at a fixed rate (default 97 Hz — prime, so it cannot lock
// onto loop periods); the handler captures the interrupted stack plus the
// innermost active TraceSpan and logical rank into a per-thread lock-free
// ring, and a collector thread aggregates. Output is folded-stack text
// (directly consumable by flamegraph.pl / speedscope) plus a ranked
// hot-path table whose rows carry the enclosing span and, where the
// symbol matches a vectorizable codec kernel family, a SIMD-candidate hint.
//
// Cost contract (matching the tracer/metrics/ledger): with the profiler
// off, a TraceSpan still costs exactly one relaxed atomic load and no
// allocation or IO; register_current_thread() on an unconfigured profiler
// is one relaxed load. While sampling, the per-span tax is two function
// calls writing a fixed-depth thread-local span stack, and the handler
// writes one ring slot — it never allocates, locks, or blocks.
//
// ITIMER_PROF counts process CPU time, so the sampling rate is shared by
// all running threads in proportion to the CPU they use: idle threads are
// (correctly) invisible, and self-time percentages are CPU shares.
//
// Wiring: FFTGRAD_PROFILE=1 (telemetry::init_from_env()) starts sampling
// and writes FFTGRAD_PROFILE_OUT (default profile.folded) plus
// <out>.report.txt at exit; FFTGRAD_PROFILE_HZ overrides the rate.
// `examples/run_report --profile <folded>` renders the hot-path section
// and cross-references host self-time against the simulated critical
// path. See DESIGN.md "Host-time profiling".
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "fftgrad/telemetry/trace.h"

namespace fftgrad::telemetry {

/// One aggregated folded-stack line: `count` samples whose rank, span and
/// call stack all matched. Grammar of the text form (one line each):
///
///   rank:<r>;cat:<category>;span:<name>;<root>;...;<leaf> <count>
///
/// rank -1 / empty category / empty span render as "-". The three
/// synthetic root frames make flamegraphs group by rank, then span
/// category, then span, before the real stack. Frame text never contains
/// ';' (sanitized at symbolization); the count is separated by the LAST
/// space, so demangled signatures may contain spaces.
struct FoldedStack {
  std::int32_t rank = -1;
  std::string category;             ///< span category ("" = none)
  std::string span;                 ///< innermost span name ("" = none)
  std::vector<std::string> frames;  ///< root-first symbolized frames
  std::uint64_t count = 0;
};

/// One row of the ranked hot-path table.
struct HotPath {
  std::string symbol;
  std::uint64_t self_samples = 0;   ///< samples with this symbol as leaf
  std::uint64_t total_samples = 0;  ///< samples with it anywhere on stack
  double self_pct = 0.0;
  double total_pct = 0.0;
  std::string top_span;   ///< span holding most of the self samples
  std::string simd_hint;  ///< SIMD-candidate kernel family, "" = none
};

/// Where the sampler credits the calling thread's samples: its innermost
/// open span (null when none) and its logical rank (-1 when unbound).
struct SampleSite {
  const char* span_name = nullptr;
  const char* span_category = nullptr;
  std::int32_t rank = -1;
};

class Profiler {
 public:
  /// Prime (97) so the sampler cannot phase-lock to loop periods.
  static constexpr int kDefaultHz = 97;

  static Profiler& global();

  /// Make the calling thread sampleable. One relaxed atomic load when the
  /// profiler was never configured; otherwise allocates the thread's ring
  /// (outside signal context) and registers it with the collector. Called
  /// from init_from_env(), thread-pool workers and SimCluster rank
  /// threads; threads spawned before the profiler was configured are not
  /// sampled.
  static void register_current_thread();

  /// True while sampling mirrors span stacks: one relaxed load, so callers
  /// can skip current_site() when nobody attributes samples.
  static bool attributing() {
    return (detail::g_span_hooks.load(std::memory_order_relaxed) & detail::kSpanHookProfile) != 0;
  }

  /// The calling thread's SampleSite.
  static SampleSite current_site();

  /// Install the SIGPROF handler and start the interval timer at `hz`
  /// (clamped to [1, 1000]); spawns the collector thread. Returns false
  /// if already running or the OS refused the handler/timer.
  bool start(int hz = kDefaultHz);

  /// Stop the timer, join the collector, drain every ring, and publish
  /// the profile.* metrics. The handler stays installed (benign once the
  /// timer is off; restoring dispositions races with in-flight signals).
  void stop();

  bool running() const;

  /// Drain pending samples and return the aggregate, symbolized and
  /// deterministically ordered. Callable while running or after stop().
  std::vector<FoldedStack> folded();

  /// folded() rendered in the text grammar above.
  std::string render_folded_text();

  /// Write render_folded_text() to `path`; false (and a log line) on IO
  /// failure.
  bool write_folded(const std::string& path);

  /// Ranked hot-path table over folded(), most self-time first.
  std::vector<HotPath> hot_paths();

  /// Human-readable report: sample accounting plus the top-N hot paths.
  std::string render_report(std::size_t top_n = 20);

  struct Stats {
    std::uint64_t samples = 0;    ///< samples captured by the handler
    std::uint64_t dropped = 0;    ///< lost to full rings
    std::uint64_t truncated = 0;  ///< stacks deeper than the capture limit
    std::uint64_t threads = 0;    ///< threads registered for sampling
    int hz = 0;
  };
  Stats stats() const;

  /// Drop every aggregated and pending sample (rings stay registered).
  void clear();

 private:
  Profiler() = default;
};

/// Credits the calling thread's samples to `site` until destruction: pushes
/// its span (when it has one) and binds its rank, then restores both. The
/// thread pool runs each task inside one while the profiler attributes, so
/// a worker's samples land in the span and rank that submitted the task.
class ScopedSampleSite {
 public:
  explicit ScopedSampleSite(const SampleSite& site);
  ~ScopedSampleSite();

  ScopedSampleSite(const ScopedSampleSite&) = delete;
  ScopedSampleSite& operator=(const ScopedSampleSite&) = delete;

 private:
  std::int32_t previous_rank_;
  bool pushed_;
};

/// Parse folded-stack text (the render grammar above; also what
/// flamegraph tooling consumes). Returns false and sets `error` (when
/// given) on the first malformed line. Parsing then re-rendering is
/// byte-identical for canonical input — the round-trip the tests and the
/// profile gate rely on.
bool parse_folded(const std::string& text, std::vector<FoldedStack>& out,
                  std::string* error = nullptr);

/// Render stacks in the folded text grammar (sorted copy; deterministic).
std::string render_folded(const std::vector<FoldedStack>& stacks);

/// Ranked hot-path table from parsed stacks (used by run_report on a
/// folded file, and by Profiler::hot_paths on live data).
std::vector<HotPath> hot_paths_from(const std::vector<FoldedStack>& stacks);

/// The hot-path table rendered as text (top_n rows).
std::string render_hot_paths(const std::vector<HotPath>& paths, std::size_t top_n = 20);

/// SIMD-candidate matcher: maps a (demangled) symbol to the kernel family
/// it belongs to — FFT butterflies, half/RangeFloat quantize/dequantize,
/// top-k threshold scan, prefix-sum packing, CRC-checked framing — tagged
/// "(SIMD candidate)", or "" when it matches none.
std::string simd_candidate_hint(const std::string& symbol);

}  // namespace fftgrad::telemetry
