// Host-time sampling profiler suite (ctest label `profile`).
//
// Covers the profiler's whole contract: the folded-stack grammar
// round-trips and rejects malformed input, the SIMD-candidate matcher maps
// the codec's kernel families, hot-path ranking computes self/total
// shares and span attribution from hand-built stacks, the disabled path
// allocates nothing (counting operator new), start/stop collects samples
// attributed to a known hot loop's span (exercised under TSan by the tsan
// preset — the handler/collector handoff is the interesting race surface),
// and a multi-rank SimCluster run attributes each rank thread's samples to
// the correct rank track.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/telemetry/profiler.h"
#include "fftgrad/telemetry/trace.h"

// ---------------------------------------------------------------------------
// Global allocation counter for the disabled-path zero-allocation test.
// Overriding the global operator new/delete pair is the one reliable way to
// observe "this call path allocates nothing" without a custom allocator.

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Every pointer these receive came from the malloc-backed operator new
// above; GCC cannot see that pairing and warns about free() on new'd
// memory, so the diagnostic is suppressed for the definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace fftgrad {
namespace {

using telemetry::FoldedStack;
using telemetry::HotPath;
using telemetry::Profiler;

/// Deterministic CPU burner: ITIMER_PROF samples process CPU time, so the
/// sampled code must actually compute.
std::uint64_t burn(std::uint64_t iters) {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) acc = acc + i * 2654435761ull;
  return acc;
}

FoldedStack make_stack(std::int32_t rank, const std::string& category,
                       const std::string& span, std::vector<std::string> frames,
                       std::uint64_t count) {
  FoldedStack stack;
  stack.rank = rank;
  stack.category = category;
  stack.span = span;
  stack.frames = std::move(frames);
  stack.count = count;
  return stack;
}

TEST(FoldedGrammar, RenderParseRoundTrip) {
  std::vector<FoldedStack> stacks;
  stacks.push_back(make_stack(0, "trainer", "compress",
                              {"main", "Trainer::step", "FftCompressor::compress"}, 12));
  stacks.push_back(make_stack(3, "codec", "fft.quantize",
                              {"main", "quantize_block(float const*, int)"}, 7));
  stacks.push_back(make_stack(-1, "", "", {"collector_loop"}, 1));

  const std::string rendered = telemetry::render_folded(stacks);
  // Spot-check the grammar: rank/cat/span prefix tokens, "-" for none,
  // count after the last space.
  EXPECT_NE(rendered.find("rank:0;cat:trainer;span:compress;main;"), std::string::npos);
  EXPECT_NE(rendered.find("rank:-;cat:-;span:-;collector_loop 1"), std::string::npos);

  std::vector<FoldedStack> parsed;
  std::string error;
  ASSERT_TRUE(telemetry::parse_folded(rendered, parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), stacks.size());
  EXPECT_EQ(telemetry::render_folded(parsed), rendered);  // byte-identical

  // Demangled frames may contain spaces; the count still parses.
  bool found = false;
  for (const FoldedStack& stack : parsed) {
    if (stack.rank == 3) {
      ASSERT_EQ(stack.frames.size(), 2u);
      EXPECT_EQ(stack.frames[1], "quantize_block(float const*, int)");
      EXPECT_EQ(stack.count, 7u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FoldedGrammar, RejectsMalformedLines) {
  std::vector<FoldedStack> out;
  std::string error;
  // Missing count.
  EXPECT_FALSE(telemetry::parse_folded("rank:0;cat:c;span:s;frame\n", out, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  // Zero count.
  EXPECT_FALSE(telemetry::parse_folded("rank:0;cat:c;span:s;frame 0\n", out, &error));
  // Bad rank.
  EXPECT_FALSE(telemetry::parse_folded("rank:x;cat:c;span:s;frame 1\n", out, &error));
  // Missing prefix tokens.
  EXPECT_FALSE(telemetry::parse_folded("cat:c;span:s;frame 3\n", out, &error));
  // Empty frame (double semicolon).
  EXPECT_FALSE(telemetry::parse_folded("rank:0;cat:c;span:s;;frame 3\n", out, &error));
  // Empty input and blank lines are fine.
  EXPECT_TRUE(telemetry::parse_folded("", out, &error));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(telemetry::parse_folded("\n\n", out, &error));
  EXPECT_TRUE(out.empty());
}

TEST(HotPaths, SimdCandidateHints) {
  // One representative per SIMD-candidate kernel family.
  EXPECT_NE(telemetry::simd_candidate_hint("fftgrad::fft::butterfly_pass"), "");
  EXPECT_NE(telemetry::simd_candidate_hint("FftCompressor::rfft"), "");
  EXPECT_NE(telemetry::simd_candidate_hint("quantize_block"), "");
  EXPECT_NE(telemetry::simd_candidate_hint("TopKCompressor::threshold_scan"), "");
  EXPECT_NE(telemetry::simd_candidate_hint("pack_bitmap_words"), "");
  EXPECT_NE(telemetry::simd_candidate_hint("fftgrad::util::crc32_update"), "");
  // Every hint carries the SIMD-candidate marker; unrelated symbols map to
  // nothing.
  EXPECT_NE(telemetry::simd_candidate_hint("fft_pass").find("(SIMD candidate)"),
            std::string::npos);
  EXPECT_EQ(telemetry::simd_candidate_hint("main"), "");
  EXPECT_EQ(telemetry::simd_candidate_hint("Trainer::step"), "");
  // The project namespace contains "fft"; that alone must not tag a symbol.
  EXPECT_EQ(telemetry::simd_candidate_hint("fftgrad::nn::SgdOptimizer::step"), "");
  EXPECT_NE(telemetry::simd_candidate_hint("fftgrad::quant::RangeFloat::decode"),
            telemetry::simd_candidate_hint("fftgrad::fft::FftPlan::Impl::execute"));
}

TEST(HotPaths, RankingSelfTotalAndSpan) {
  std::vector<FoldedStack> stacks;
  // 6 samples: leaf=quantize under span compress.
  stacks.push_back(make_stack(0, "trainer", "compress", {"main", "step", "quantize"}, 6));
  // 3 samples: leaf=step (self time in the middle frame elsewhere).
  stacks.push_back(make_stack(0, "trainer", "apply", {"main", "step"}, 3));
  // 1 sample: quantize appears twice on one stack — total counts it once.
  stacks.push_back(make_stack(0, "trainer", "compress",
                              {"main", "quantize", "helper", "quantize"}, 1));

  const std::vector<HotPath> ranked = telemetry::hot_paths_from(stacks);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].symbol, "quantize");  // 7 self samples of 10 total
  EXPECT_EQ(ranked[0].self_samples, 7u);
  EXPECT_EQ(ranked[0].total_samples, 7u);  // deduped per line: 6 + 1
  EXPECT_NEAR(ranked[0].self_pct, 70.0, 1e-9);
  EXPECT_EQ(ranked[0].top_span, "compress");
  EXPECT_NE(ranked[0].simd_hint, "");

  for (const HotPath& path : ranked) {
    if (path.symbol == "main") {
      EXPECT_EQ(path.self_samples, 0u);
      EXPECT_EQ(path.total_samples, 10u);
      EXPECT_NEAR(path.total_pct, 100.0, 1e-9);
    }
    if (path.symbol == "step") {
      EXPECT_EQ(path.self_samples, 3u);
      EXPECT_EQ(path.total_samples, 9u);
      EXPECT_EQ(path.top_span, "apply");
    }
  }
  const std::string table = telemetry::render_hot_paths(ranked);
  EXPECT_NE(table.find("quantize"), std::string::npos);
  EXPECT_NE(table.find("simd candidate"), std::string::npos);
}

// Must run before any test that calls Profiler::start(): the disabled-path
// contract is about a *never-configured* profiler, where a TraceSpan is one
// relaxed load and register_current_thread() returns before touching any
// registry. (gtest runs tests in definition order within a file.)
TEST(HostProfiler, DisabledPathZeroAllocation) {
  // Warm up anything lazily constructed by a first span.
  { telemetry::TraceSpan warmup("test.warmup", "test"); }
  Profiler::register_current_thread();

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    telemetry::TraceSpan span("test.disabled", "test");
    Profiler::register_current_thread();
  }
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after, before) << "disabled-path TraceSpan/register_current_thread allocated";
}

TEST(HostProfiler, StartStopCollectsAndAttributesSamples) {
  Profiler& profiler = Profiler::global();
  profiler.clear();
  const std::uint64_t before = profiler.stats().samples;
  ASSERT_TRUE(profiler.start(500));
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.start(500));  // second start while running is refused

  // Burn CPU inside a known span until the handler has taken samples.
  // ITIMER_PROF counts CPU time, so the deadline is generous for loaded
  // single-core CI boxes (and TSan's ~10x slowdown is CPU time, not idle).
  // The span scope covers the stats()/now() polls too: TSan defers signal
  // delivery to the next intercepted call, so a span that closes before
  // the poll would never be credited under the tsan preset.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::uint64_t sink = 0;
  {
    telemetry::TraceSpan span("test.hotloop", "test");
    while (profiler.stats().samples < before + 8 &&
           std::chrono::steady_clock::now() < deadline) {
      sink += burn(200000);
    }
  }
  profiler.stop();
  EXPECT_FALSE(profiler.running());
  (void)sink;

  const Profiler::Stats stats = profiler.stats();
  ASSERT_GE(stats.samples, before + 8) << "no SIGPROF samples arrived";
  EXPECT_GE(stats.threads, 1u);
  EXPECT_EQ(stats.hz, 500);

  const std::vector<FoldedStack> stacks = profiler.folded();
  std::uint64_t total = 0;
  std::uint64_t in_span = 0;
  for (const FoldedStack& stack : stacks) {
    total += stack.count;
    if (stack.span == "test.hotloop") {
      EXPECT_EQ(stack.category, "test");
      in_span += stack.count;
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(in_span, 0u) << "no sample attributed to the hot loop's span";

  // Live data must round-trip through the text grammar.
  const std::string rendered = profiler.render_folded_text();
  std::vector<FoldedStack> parsed;
  std::string error;
  ASSERT_TRUE(telemetry::parse_folded(rendered, parsed, &error)) << error;
  EXPECT_EQ(telemetry::render_folded(parsed), rendered);

  const std::string report = profiler.render_report();
  EXPECT_NE(report.find("Hot paths"), std::string::npos);

  profiler.stop();  // second stop is a no-op
  EXPECT_FALSE(profiler.running());
}

TEST(HostProfiler, PoolTasksSampleUnderTheSubmittersSpan) {
  Profiler& profiler = Profiler::global();
  profiler.clear();
  const std::uint64_t before = profiler.stats().samples;
  ASSERT_TRUE(profiler.start(500));
  // Spawned after start(), so its workers register for sampling.
  parallel::ThreadPool pool(2);

  // The workers burn the CPU; the main thread only waits, inside a span
  // that carries rank 7. Each task polls the clock while it burns: TSan
  // delivers a signal at the next intercepted call, which must still fall
  // inside the task.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  {
    const telemetry::ScopedRank rank(7, nullptr);
    const telemetry::TraceSpan span("test.pooled", "test");
    while (profiler.stats().samples < before + 40 &&
           std::chrono::steady_clock::now() < deadline) {
      parallel::parallel_for(pool, 2, [](std::size_t, std::size_t) {
        const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
        std::uint64_t sink = 0;
        while (std::chrono::steady_clock::now() < until) sink += burn(20000);
        (void)sink;
      });
    }
  }
  profiler.stop();
  ASSERT_GE(profiler.stats().samples, before + 40) << "no SIGPROF samples arrived";

  std::uint64_t total = 0;
  std::uint64_t in_span = 0;
  for (const FoldedStack& stack : profiler.folded()) {
    total += stack.count;
    if (stack.span == "test.pooled") {
      EXPECT_EQ(stack.category, "test");
      EXPECT_EQ(stack.rank, 7);
      in_span += stack.count;
    }
  }
  // Nearly every sample is a worker's; without the submitter's span they
  // would all land outside it.
  EXPECT_GT(2 * in_span, total) << in_span << " of " << total << " samples in the span";
}

TEST(HostProfiler, MultiRankClusterRankAttribution) {
  Profiler& profiler = Profiler::global();
  profiler.clear();
  const std::uint64_t before = profiler.stats().samples;
  ASSERT_TRUE(profiler.start(500));

  static const char* kRankSpans[4] = {"rank.work.0", "rank.work.1", "rank.work.2",
                                      "rank.work.3"};
  comm::SimCluster cluster(comm::NetworkModel::ethernet_10g());
  cluster.run(4, [&](comm::RankContext& ctx) {
    const std::size_t r = ctx.rank();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    std::uint64_t sink = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      telemetry::TraceSpan span(kRankSpans[r], "test");
      sink += burn(100000);
      if (profiler.stats().samples >= before + 40) break;
    }
    (void)sink;
  });
  profiler.stop();

  // Every sample that landed inside a rank.work.<i> span must carry rank i:
  // the span literal is unique to rank i's thread, and ScopedRank mirrored
  // the binding into the profiler's thread state.
  const std::vector<FoldedStack> stacks = profiler.folded();
  std::uint64_t attributed = 0;
  for (const FoldedStack& stack : stacks) {
    if (stack.span.rfind("rank.work.", 0) != 0) continue;
    ASSERT_GE(stack.rank, 0);
    ASSERT_LT(stack.rank, 4);
    EXPECT_EQ(stack.span, std::string("rank.work.") + std::to_string(stack.rank));
    attributed += stack.count;
  }
  EXPECT_GT(attributed, 0u) << "no sample landed on any rank track";
}

}  // namespace
}  // namespace fftgrad
