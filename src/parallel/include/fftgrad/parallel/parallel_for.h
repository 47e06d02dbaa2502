// Data-parallel loop, reduction, and inclusive-scan primitives over index
// ranges, scheduled on a ThreadPool. These mirror the GPU primitives the
// paper relies on (Thrust's for_each / reduce / inclusive_scan): the packing
// algorithm of Sec 3.2 is exactly mark + scan + scatter.
//
// Work is split into contiguous chunks, one per worker; each primitive
// blocks until every chunk completes, and the first exception (if any)
// is rethrown on the caller. Called from a pool worker, or from a thread
// inside a ScopedInlineChunks (thread_pool.h; cluster_train's rank threads
// when the ranks fill the pool), a primitive runs the same chunks in order
// on the calling thread, so nested calls cannot deadlock and a reduction
// combines the same partials.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <numeric>
#include <span>
#include <vector>

#include "fftgrad/parallel/thread_pool.h"

namespace fftgrad::parallel {

struct Range {
  std::size_t begin;
  std::size_t end;
  std::size_t size() const { return end - begin; }
};

/// Split [0, n) into at most `parts` non-empty contiguous ranges.
inline std::vector<Range> split_range(std::size_t n, std::size_t parts) {
  std::vector<Range> ranges;
  if (n == 0 || parts == 0) return ranges;
  parts = std::min(parts, n);
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  std::size_t at = 0;
  for (std::size_t i = 0; i < parts; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    ranges.push_back({at, at + len});
    at += len;
  }
  return ranges;
}

namespace detail {

/// Runs task(c) for every c < count and returns once all have finished,
/// rethrowing the first exception: on `pool`, or in order on the calling
/// thread when runs_chunks_inline().
template <typename Task>
void run_chunks(ThreadPool& pool, std::size_t count, const Task& task) {
  if (runs_chunks_inline()) {
    for (std::size_t c = 0; c < count; ++c) task(c);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t c = 0; c < count; ++c) futures.push_back(pool.submit([&task, c] { task(c); }));
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();
}

}  // namespace detail

/// Run body(begin, end) over disjoint chunks covering [0, n).
inline void parallel_for(ThreadPool& pool, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const auto ranges = split_range(n, pool.size());
  if (ranges.size() == 1) {
    body(0, n);
    return;
  }
  detail::run_chunks(pool, ranges.size(),
                     [&](std::size_t c) { body(ranges[c].begin, ranges[c].end); });
}

inline void parallel_for(std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for(ThreadPool::global(), n, body);
}

/// Tree reduction: combine per-chunk partials with `combine`.
/// chunk_fn(begin, end) -> partial value for that chunk.
template <typename T, typename ChunkFn, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t n, T identity, ChunkFn chunk_fn,
                  Combine combine) {
  if (n == 0) return identity;
  const auto ranges = split_range(n, pool.size());
  if (ranges.size() == 1) return combine(identity, chunk_fn(std::size_t{0}, n));
  std::vector<T> partials(ranges.size(), identity);
  detail::run_chunks(pool, ranges.size(), [&](std::size_t c) {
    partials[c] = chunk_fn(ranges[c].begin, ranges[c].end);
  });
  T acc = identity;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

/// Parallel inclusive prefix sum (Blelloch two-pass over chunks):
/// pass 1 computes each chunk's local inclusive scan and total,
/// a serial exclusive scan over the (few) chunk totals yields offsets,
/// pass 2 adds each chunk's offset. out[i] = in[0] + ... + in[i].
template <typename TIn, typename TOut>
void parallel_inclusive_scan(ThreadPool& pool, std::span<const TIn> in, std::span<TOut> out) {
  if (in.size() != out.size()) throw std::invalid_argument("scan: size mismatch");
  const std::size_t n = in.size();
  if (n == 0) return;
  const auto ranges = split_range(n, pool.size());
  std::vector<TOut> totals(ranges.size(), TOut{});
  const auto scan_chunk = [&](std::size_t c) {
    TOut acc{};
    for (std::size_t i = ranges[c].begin; i < ranges[c].end; ++i) {
      acc += static_cast<TOut>(in[i]);
      out[i] = acc;
    }
    totals[c] = acc;
  };
  if (ranges.size() == 1) {
    scan_chunk(0);
    return;
  }
  detail::run_chunks(pool, ranges.size(), scan_chunk);

  // Exclusive scan of chunk totals (serial; chunk count == thread count).
  std::vector<TOut> offsets(ranges.size(), TOut{});
  TOut running{};
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    offsets[c] = running;
    running += totals[c];
  }

  // Chunk 0's offset is zero.
  detail::run_chunks(pool, ranges.size() - 1, [&](std::size_t c) {
    const Range r = ranges[c + 1];
    for (std::size_t i = r.begin; i < r.end; ++i) out[i] += offsets[c + 1];
  });
}

template <typename TIn, typename TOut>
void parallel_inclusive_scan(std::span<const TIn> in, std::span<TOut> out) {
  parallel_inclusive_scan(ThreadPool::global(), in, out);
}

}  // namespace fftgrad::parallel
