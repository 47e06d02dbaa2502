#include "fftgrad/sparse/topk.h"

#include <algorithm>
#include <array>
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

float kth_largest_sort(std::span<const float> magnitudes, std::size_t k) {
  std::vector<float> copy(magnitudes.begin(), magnitudes.end());
  std::sort(copy.begin(), copy.end(), std::greater<float>());
  return copy[k - 1];
}

float kth_largest_nth(std::span<const float> magnitudes, std::size_t k) {
  std::vector<float> copy(magnitudes.begin(), magnitudes.end());
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(k - 1), copy.end(),
                   std::greater<float>());
  return copy[k - 1];
}

/// Iterative bucket refinement: histogram the candidate range into 256
/// buckets, find the bucket containing the k-th largest, recurse on that
/// bucket only. Each histogram pass is parallel over the pool. Converges in
/// a handful of passes because the candidate interval shrinks ~256x per
/// pass; an equal-bounds interval is returned immediately.
float kth_largest_bucket(std::span<const float> magnitudes, std::size_t k) {
  constexpr std::size_t kBuckets = 256;
  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  for (float m : magnitudes) {
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  std::size_t rank = k;  // rank-th largest within [lo, hi]
  for (int pass = 0; pass < 64; ++pass) {
    if (!(hi > lo)) return lo;
    const double width = (static_cast<double>(hi) - lo) / kBuckets;
    using Hist = std::array<std::size_t, kBuckets>;
    Hist hist = parallel::parallel_reduce<Hist>(
        parallel::ThreadPool::global(), magnitudes.size(), Hist{},
        [&](std::size_t begin, std::size_t end) {
          Hist local{};
          for (std::size_t i = begin; i < end; ++i) {
            const float m = magnitudes[i];
            if (m < lo || m > hi) continue;
            auto b = static_cast<std::size_t>((static_cast<double>(m) - lo) / width);
            if (b >= kBuckets) b = kBuckets - 1;
            ++local[b];
          }
          return local;
        },
        [](Hist a, const Hist& b) {
          for (std::size_t i = 0; i < kBuckets; ++i) a[i] += b[i];
          return a;
        });

    // Walk buckets from the top until the cumulative count reaches `rank`.
    std::size_t cumulative = 0;
    std::size_t bucket = kBuckets;
    for (std::size_t b = kBuckets; b-- > 0;) {
      if (cumulative + hist[b] >= rank) {
        bucket = b;
        break;
      }
      cumulative += hist[b];
    }
    if (bucket == kBuckets) return lo;  // numeric edge: everything below lo
    rank -= cumulative;
    const float new_lo = static_cast<float>(lo + width * static_cast<double>(bucket));
    const float new_hi = static_cast<float>(lo + width * static_cast<double>(bucket + 1));
    if (hist[bucket] == 1 || new_lo >= new_hi || (new_lo == lo && new_hi == hi)) {
      // Bucket cannot shrink further (all candidates equal to float
      // precision): resolve the exact k-th by a final scan.
      std::vector<float> candidates;
      for (float m : magnitudes) {
        if (m >= new_lo && m <= new_hi) candidates.push_back(m);
      }
      std::nth_element(candidates.begin(),
                       candidates.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                       candidates.end(), std::greater<float>());
      return candidates[rank - 1];
    }
    lo = new_lo;
    hi = new_hi;
  }
  return lo;
}

}  // namespace

TopKResult topk_threshold(std::span<const float> magnitudes, std::size_t k, TopKMethod method) {
  if (k == 0) {
    return {std::numeric_limits<float>::infinity(), 0, 0};
  }
  if (k > magnitudes.size()) {
    throw std::invalid_argument("topk_threshold: k exceeds element count");
  }
  float threshold = 0.0f;
  switch (method) {
    case TopKMethod::kSort: threshold = kth_largest_sort(magnitudes, k); break;
    case TopKMethod::kNthElement: threshold = kth_largest_nth(magnitudes, k); break;
    case TopKMethod::kBucket: threshold = kth_largest_bucket(magnitudes, k); break;
  }
  return finalize(magnitudes, threshold);
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
