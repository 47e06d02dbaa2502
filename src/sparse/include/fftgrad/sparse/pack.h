// Packing sparse vectors into dense ones (Sec 3.2 of the paper).
//
// Two parallel implementations are provided:
//
//  * pack_scan — the paper's literal three-step algorithm: mark a status
//    flag per element, parallel inclusive prefix-sum over the flags to get
//    each survivor's destination, then scatter. This is the version whose
//    689x GPU speedup the paper reports; bench_packing reproduces the
//    serial-vs-parallel comparison on the thread pool.
//
//  * pack_bitmap — the optimized variant used by the compressors: the keep
//    mask is already a word-level Bitmap, so destinations come from an
//    exclusive scan over per-word popcounts (64 elements per scan entry
//    instead of 1), then a parallel scatter.
//
// unpack_bitmap is the inverse scatter used by the receiver. All functions
// are templated over trivially copyable element types (float for raw
// gradients, std::complex<float> for frequency bins, std::uint32_t for
// quantized codes).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/sparse/bitmap.h"

namespace fftgrad::sparse {

/// Build the status bitmap of non-zero positions of `sparse` (step 1 of the
/// paper's algorithm, at word granularity).
template <typename T>
Bitmap nonzero_bitmap(std::span<const T> sparse) {
  Bitmap bitmap(sparse.size());
  auto words = bitmap.words();
  parallel::parallel_for(words.size(), [&](std::size_t wbegin, std::size_t wend) {
    for (std::size_t w = wbegin; w < wend; ++w) {
      std::uint64_t word = 0;
      const std::size_t base = w * 64;
      const std::size_t limit = std::min<std::size_t>(64, sparse.size() - base);
      for (std::size_t b = 0; b < limit; ++b) {
        if (sparse[base + b] != T{}) word |= std::uint64_t{1} << b;
      }
      words[w] = word;
    }
  });
  return bitmap;
}

/// Paper's literal algorithm: per-element status -> inclusive scan ->
/// scatter. Returns the dense vector of survivors in index order.
template <typename T>
std::vector<T> pack_scan(parallel::ThreadPool& pool, std::span<const T> sparse) {
  const std::size_t n = sparse.size();
  std::vector<std::uint32_t> status(n);
  parallel::parallel_for(pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) status[i] = sparse[i] != T{} ? 1u : 0u;
  });
  std::vector<std::uint32_t> location(n);
  parallel::parallel_inclusive_scan<std::uint32_t, std::uint32_t>(pool, status, location);
  const std::size_t kept = n == 0 ? 0 : location[n - 1];
  std::vector<T> dense(kept);
  parallel::parallel_for(pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (status[i]) dense[location[i] - 1] = sparse[i];
    }
  });
  return dense;
}

/// Single-threaded reference (the baseline of the paper's 689x comparison).
template <typename T>
std::vector<T> pack_serial(std::span<const T> sparse) {
  std::vector<T> dense;
  for (const T& v : sparse) {
    if (v != T{}) dense.push_back(v);
  }
  return dense;
}

/// Optimized pack: keep-positions come from `keep` (word-granular popcount
/// scan + parallel scatter). Elements of `sparse` at cleared positions are
/// ignored regardless of value, so callers may pass the unmodified input
/// alongside a top-k mask.
template <typename T>
std::vector<T> pack_bitmap(parallel::ThreadPool& pool, std::span<const T> sparse,
                           const Bitmap& keep) {
  if (keep.size() != sparse.size()) throw std::invalid_argument("pack_bitmap: size mismatch");
  auto words = keep.words();
  std::vector<std::uint32_t> word_counts(words.size());
  for (std::size_t w = 0; w < words.size(); ++w) {
    word_counts[w] = static_cast<std::uint32_t>(std::popcount(words[w]));
  }
  // Exclusive scan over word popcounts (serial: word count is n/64).
  std::vector<std::uint32_t> word_offsets(words.size() + 1, 0);
  for (std::size_t w = 0; w < words.size(); ++w) {
    word_offsets[w + 1] = word_offsets[w] + word_counts[w];
  }
  std::vector<T> dense(word_offsets.back());
  parallel::parallel_for(pool, words.size(), [&](std::size_t wbegin, std::size_t wend) {
    for (std::size_t w = wbegin; w < wend; ++w) {
      std::uint64_t word = words[w];
      std::size_t at = word_offsets[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        dense[at++] = sparse[w * 64 + static_cast<std::size_t>(bit)];
        word &= word - 1;
      }
    }
  });
  return dense;
}

/// Inverse scatter: place dense[j] at the j-th set position of `keep`,
/// zero-fill everywhere else. `out` must have keep.size() elements. Like
/// pack_bitmap's gather it visits set bits only: each chunk of words
/// zero-fills its part of `out`, then writes its survivors there.
/// dense.size() must equal keep.count(), which counts any set bits past
/// keep.size() in the last word; those bits are ignored.
template <typename T>
void unpack_bitmap(parallel::ThreadPool& pool, std::span<const T> dense, const Bitmap& keep,
                   std::span<T> out) {
  if (out.size() != keep.size()) throw std::invalid_argument("unpack_bitmap: size mismatch");
  if (keep.count() != dense.size()) {
    throw std::invalid_argument("unpack_bitmap: dense size does not match set-bit count");
  }
  auto words = keep.words();
  parallel::parallel_for(pool, words.size(), [&](std::size_t wbegin, std::size_t wend) {
    std::size_t at = 0;
    for (std::size_t w = 0; w < wbegin; ++w) {
      at += static_cast<std::size_t>(std::popcount(words[w]));
    }
    const std::size_t end = std::min(out.size(), wend * 64);
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(wbegin * 64),
              out.begin() + static_cast<std::ptrdiff_t>(end), T{});
    for (std::size_t w = wbegin; w < wend; ++w) {
      for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
        const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
        if (i >= end) break;
        out[i] = dense[at++];
      }
    }
  });
}

}  // namespace fftgrad::sparse
