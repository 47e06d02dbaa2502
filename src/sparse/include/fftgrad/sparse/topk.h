// Top-k selection by magnitude: the thresholding primitive behind both
// the paper's FFT sparsifier (keep the top (1-theta) fraction of frequency
// components) and the Top-k baseline (keep the top (1-theta) fraction of
// raw gradients).
//
// Both functions rank values by |x|, read through the bits of |x|: the
// float's bits without the sign bit, as a uint32. These order as the
// magnitudes do, with -0 equal to +0, and every NaN ranks above +inf. The
// selection is an exact most-significant-digit radix select over those
// keys: one 11-bit histogram pass over all n, split over the thread pool,
// then an 11-bit and a 9-bit pass over the keys that share the digits
// above. It returns the k-th largest magnitude ("threshold") and counts of
// the values above and at it, so callers can keep exactly k elements even
// in the presence of ties.
#pragma once

#include <cstddef>
#include <span>

#include "fftgrad/sparse/bitmap.h"

namespace fftgrad::sparse {

struct TopKResult {
  float threshold = 0.0f;      ///< magnitude of the k-th largest element
  std::size_t above = 0;       ///< elements with magnitude > threshold
  std::size_t at_threshold = 0;///< elements with magnitude == threshold
};

/// Find the k-th largest magnitude |x| of `values` (k in [1, n]); values
/// may be signed. k == 0 returns a threshold of +inf (keep nothing).
TopKResult topk_threshold(std::span<const float> values, std::size_t k);

/// The exact-k keep mask shared by the FFT codec (over bin moduli) and the
/// Top-k baseline (over g): every element whose magnitude exceeds the
/// k-th largest, then ties at that threshold in index order, so exactly
/// min(k, n) bits are set, NaN and infinities included.
Bitmap topk_mask(std::span<const float> values, std::size_t k);

}  // namespace fftgrad::sparse
