// Top-k selection over magnitudes: the thresholding primitive behind both
// the paper's FFT sparsifier (keep the top (1-theta) fraction of frequency
// components) and the Top-k baseline (keep the top (1-theta) fraction of
// raw gradients).
//
// Three interchangeable algorithms are provided (ablated in
// bench_micro_primitives):
//   kSort        full std::sort of magnitudes — O(n log n), the reference.
//   kNthElement  std::nth_element — O(n) expected, serial.
//   kBucket      iterative histogram refinement (the CPU analogue of the
//                GPU bucketSelect algorithm the paper cites) — O(n) passes,
//                each pass parallelized over the thread pool.
//
// All return the magnitude of the k-th largest element ("threshold") and a
// count of how many elements strictly exceed it, so callers can keep
// exactly k elements even in the presence of ties.
#pragma once

#include <cstddef>
#include <span>

#include "fftgrad/sparse/bitmap.h"

namespace fftgrad::sparse {

enum class TopKMethod { kSort, kNthElement, kBucket };

struct TopKResult {
  float threshold = 0.0f;      ///< magnitude of the k-th largest element
  std::size_t above = 0;       ///< elements with magnitude > threshold
  std::size_t at_threshold = 0;///< elements with magnitude == threshold
};

/// Find the k-th largest value of `magnitudes` (k in [1, n]). Magnitudes
/// must be non-negative (callers pass |x| or complex modulus). k == 0
/// returns a threshold of +inf (keep nothing).
TopKResult topk_threshold(std::span<const float> magnitudes, std::size_t k,
                          TopKMethod method = TopKMethod::kNthElement);

/// The exact-k keep mask shared by the FFT codec (over bin moduli) and the
/// Top-k baseline (over |g|): every element whose magnitude exceeds the
/// k-th largest, then ties at that threshold in index order, so exactly
/// min(k, n) bits are set.
Bitmap topk_mask(std::span<const float> magnitudes, std::size_t k);

}  // namespace fftgrad::sparse
