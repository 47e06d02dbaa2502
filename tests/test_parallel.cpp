#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/parallel/thread_pool.h"
#include "fftgrad/telemetry/metrics.h"

namespace fftgrad::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

/// Float sum of 1/(i+1) over [0, n) in `pool`'s chunks: the rounding
/// depends on where the chunks split, so equal results mean equal chunks.
float harmonic_sum(ThreadPool& pool, std::size_t n) {
  return parallel_reduce<float>(
      pool, n, 0.0f,
      [](std::size_t begin, std::size_t end) {
        float acc = 0.0f;
        for (std::size_t i = begin; i < end; ++i) acc += 1.0f / static_cast<float>(i + 1);
        return acc;
      },
      [](float a, float b) { return a + b; });
}

TEST(ThreadPool, NestedCallsFromEveryWorkerFinish) {
  // Both workers of a two-thread pool call back into it from a task. Had
  // the nested calls queued their chunks and blocked on them, no worker
  // would be left to run them. The test fails at a deadline rather than
  // hang, and then leaks the pool and the state its workers still use.
  constexpr std::size_t kN = 1000;
  struct Nested {
    ThreadPool pool{2};
    std::latch started{2};
    std::array<float, 2> sums{};
    std::array<std::vector<int>, 2> visits;
  };
  auto* state = new Nested;
  std::vector<std::future<void>> done;
  for (std::size_t t = 0; t < 2; ++t) {
    done.push_back(state->pool.submit([state, t] {
      state->started.arrive_and_wait();  // both workers are inside a task
      state->visits[t].assign(kN, 0);
      parallel_for(state->pool, kN, [state, t](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++state->visits[t][i];
      });
      state->sums[t] = harmonic_sum(state->pool, kN);
    }));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (auto& f : done) {
    ASSERT_EQ(f.wait_until(deadline), std::future_status::ready)
        << "nested parallel_for/parallel_reduce deadlocked";
  }
  const float expected = harmonic_sum(state->pool, kN);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(state->sums[t], expected) << "task " << t;
    EXPECT_EQ(std::count(state->visits[t].begin(), state->visits[t].end(), 1),
              static_cast<std::ptrdiff_t>(kN))
        << "task " << t;
  }
  delete state;
}

TEST(ThreadPool, InlineThreadRunsTheSameChunksWithoutSubmitting) {
  // A plain thread marked to run chunks inline, as cluster_train marks its
  // rank threads when the ranks fill the pool, submits nothing to a
  // four-worker pool, yet reduces over the same four chunks in the same
  // order, so its sum equals the pooled one bit for bit.
  constexpr std::size_t kN = 100000;
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const telemetry::Counter& tasks = registry.counter("pool.tasks");
  ThreadPool pool(4);

  const double pooled_before = tasks.value();
  const float pooled = harmonic_sum(pool, kN);
  EXPECT_EQ(tasks.value() - pooled_before, 4.0);

  float inline_sum = 0.0f;
  double submitted = -1.0;
  std::vector<int> visits(kN, 0);
  std::thread caller([&] {
    const ScopedInlineChunks inline_chunks;
    const double before = tasks.value();
    parallel_for(pool, kN, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++visits[i];
    });
    inline_sum = harmonic_sum(pool, kN);
    submitted = tasks.value() - before;
  });
  caller.join();
  registry.set_enabled(was_enabled);

  EXPECT_EQ(submitted, 0.0);
  EXPECT_EQ(inline_sum, pooled);
  EXPECT_EQ(std::count(visits.begin(), visits.end(), 1), static_cast<std::ptrdiff_t>(kN));
}

TEST(ThreadPool, ScopedInlineChunksRestoresThePreviousMark) {
  EXPECT_FALSE(runs_chunks_inline());
  {
    const ScopedInlineChunks off(false);
    EXPECT_FALSE(runs_chunks_inline());
    const ScopedInlineChunks on;
    EXPECT_TRUE(runs_chunks_inline());
  }
  EXPECT_FALSE(runs_chunks_inline());
  // A worker runs inline for good: a scope constructed off leaves it so.
  ThreadPool pool(1);
  bool in_scope = false;
  bool after_scope = false;
  pool.submit([&] {
        {
          const ScopedInlineChunks off(false);
          in_scope = runs_chunks_inline();
        }
        after_scope = runs_chunks_inline();
      })
      .get();
  EXPECT_TRUE(in_scope);
  EXPECT_TRUE(after_scope);
}

TEST(SplitRange, CoversWholeDomainWithoutGaps) {
  const auto ranges = split_range(103, 4);
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().begin, 0u);
  EXPECT_EQ(ranges.back().end, 103u);
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);
    EXPECT_GT(ranges[i].size(), 0u);
  }
}

TEST(SplitRange, NeverProducesMorePartsThanElements) {
  const auto ranges = split_range(3, 16);
  EXPECT_EQ(ranges.size(), 3u);
}

TEST(SplitRange, EmptyDomainYieldsNoRanges) {
  EXPECT_TRUE(split_range(0, 4).empty());
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  parallel_for(pool, visits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, HandlesEmptyDomain) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelReduce, SumsMatchSerialReference) {
  ThreadPool pool(4);
  std::vector<int> values(5000);
  std::iota(values.begin(), values.end(), 1);
  const long long expected = std::accumulate(values.begin(), values.end(), 0ll);
  const long long total = parallel_reduce<long long>(
      pool, values.size(), 0ll,
      [&](std::size_t begin, std::size_t end) {
        long long acc = 0;
        for (std::size_t i = begin; i < end; ++i) acc += values[i];
        return acc;
      },
      [](long long a, long long b) { return a + b; });
  EXPECT_EQ(total, expected);
}

TEST(ParallelReduce, IdentityForEmptyDomain) {
  ThreadPool pool(2);
  const int total = parallel_reduce<int>(
      pool, 0, 7, [](std::size_t, std::size_t) { return 100; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(total, 7);
}

class ScanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanTest, InclusiveScanMatchesSerialReference) {
  ThreadPool pool(4);
  const std::size_t n = GetParam();
  std::vector<std::uint32_t> in(n);
  for (std::size_t i = 0; i < n; ++i) in[i] = static_cast<std::uint32_t>(i % 3 == 0);
  std::vector<std::uint32_t> out(n);
  parallel_inclusive_scan<std::uint32_t, std::uint32_t>(pool, in, out);
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += in[i];
    ASSERT_EQ(out[i], acc) << "at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanTest,
                         ::testing::Values(1, 2, 3, 63, 64, 65, 1000, 4096, 100000));

TEST(Scan, OneRangeRunsOnTheCallerLikeForAndReduce) {
  // On a one-worker pool each primitive has a single range, which it runs
  // on the calling thread rather than queueing one task to block on.
  constexpr std::size_t kN = 1000;
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const telemetry::Counter& tasks = registry.counter("pool.tasks");
  ThreadPool pool(1);
  std::vector<std::uint32_t> in(kN, 1), out(kN);
  std::vector<double> submitted;
  double before = tasks.value();
  parallel_for(pool, kN, [&](std::size_t, std::size_t) {});
  submitted.push_back(tasks.value() - before);
  before = tasks.value();
  harmonic_sum(pool, kN);
  submitted.push_back(tasks.value() - before);
  before = tasks.value();
  parallel_inclusive_scan<std::uint32_t, std::uint32_t>(pool, in, out);
  submitted.push_back(tasks.value() - before);
  registry.set_enabled(was_enabled);

  EXPECT_EQ(submitted, std::vector<double>(3, 0.0));
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], i + 1) << "at index " << i;
}

TEST(Scan, RejectsMismatchedSpans) {
  ThreadPool pool(2);
  std::vector<std::uint32_t> in(4), out(5);
  EXPECT_THROW((parallel_inclusive_scan<std::uint32_t, std::uint32_t>(pool, in, out)),
               std::invalid_argument);
}

TEST(Scan, WorksWithWideningOutputType) {
  ThreadPool pool(4);
  std::vector<std::uint32_t> in(100, 0xffffffffu);
  std::vector<std::uint64_t> out(100);
  parallel_inclusive_scan<std::uint32_t, std::uint64_t>(pool, in, out);
  EXPECT_EQ(out.back(), 100ull * 0xffffffffull);
}

}  // namespace
}  // namespace fftgrad::parallel
