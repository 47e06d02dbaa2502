#include "fftgrad/sparse/topk.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fftgrad/parallel/parallel_for.h"

namespace fftgrad::sparse {
namespace {

TopKResult finalize(std::span<const float> magnitudes, float threshold) {
  TopKResult result;
  result.threshold = threshold;
  auto counts = parallel::parallel_reduce<std::pair<std::size_t, std::size_t>>(
      parallel::ThreadPool::global(), magnitudes.size(), {0, 0},
      [&](std::size_t begin, std::size_t end) {
        std::size_t above = 0, at = 0;
        for (std::size_t i = begin; i < end; ++i) {
          if (magnitudes[i] > threshold) {
            ++above;
          } else if (magnitudes[i] == threshold) {
            ++at;
          }
        }
        return std::make_pair(above, at);
      },
      [](auto a, auto b) { return std::make_pair(a.first + b.first, a.second + b.second); });
  result.above = counts.first;
  result.at_threshold = counts.second;
  return result;
}

float kth_largest(std::span<const float> magnitudes, std::size_t k) {
  std::vector<float> copy(magnitudes.begin(), magnitudes.end());
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(k - 1), copy.end(),
                   std::greater<float>());
  return copy[k - 1];
}

}  // namespace

TopKResult topk_threshold(std::span<const float> magnitudes, std::size_t k) {
  if (k == 0) {
    return {std::numeric_limits<float>::infinity(), 0, 0};
  }
  if (k > magnitudes.size()) {
    throw std::invalid_argument("topk_threshold: k exceeds element count");
  }
  return finalize(magnitudes, kth_largest(magnitudes, k));
}

Bitmap topk_mask(std::span<const float> magnitudes, std::size_t k) {
  Bitmap mask(magnitudes.size());
  if (k >= magnitudes.size()) {
    for (std::size_t i = 0; i < magnitudes.size(); ++i) mask.set(i);
    return mask;
  }
  if (k == 0) return mask;
  const TopKResult sel = topk_threshold(magnitudes, k);
  // Keep all elements above the threshold plus the first (k - above) at the
  // threshold, so exactly k survive even with ties.
  std::size_t ties_to_keep = k - sel.above;
  for (std::size_t i = 0; i < magnitudes.size(); ++i) {
    const float m = magnitudes[i];
    if (m > sel.threshold) {
      mask.set(i);
    } else if (m == sel.threshold && ties_to_keep > 0) {
      mask.set(i);
      --ties_to_keep;
    }
  }
  return mask;
}

}  // namespace fftgrad::sparse
