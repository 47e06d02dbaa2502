#include "fftgrad/sparse/topk.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fftgrad/parallel/parallel_for.h"

namespace fftgrad::sparse {
namespace {

using Key = std::uint32_t;

/// |x| as an integer that orders as |x| does: the bits of a non-negative
/// float order as the float, and dropping the sign bit keys -0 as +0.
/// Every NaN keys above +inf.
Key key_of(float x) { return std::bit_cast<Key>(x) & 0x7fffffffu; }

// The select reads the 31 key bits as three digits, most significant
// first: bits 30..20 over every key, then 19..9 and 8..0 over the keys
// that share the digits above.
constexpr int kTopShift = 20;
constexpr std::pair<int, int> kLowDigits[] = {{9, 11}, {0, 9}};  // {shift, width}
constexpr std::size_t kBins = std::size_t{1} << 11;
using Histogram = std::array<std::size_t, kBins>;

struct Bin {
  Key digit;
  std::size_t above;  ///< keys counted in the bins above `digit`
};

/// The bin that holds the k-th largest key `h` counts (1 <= k <= total).
Bin bin_of_kth(const Histogram& h, std::size_t k) {
  auto digit = static_cast<Key>(kBins - 1);
  std::size_t above = 0;
  while (above + h[digit] < k) above += h[digit--];
  return {digit, above};
}

/// Bit j is pred(key) of values[64 * w + j], for the elements word w holds.
template <typename Pred>
std::uint64_t word_bits(std::span<const float> values, std::size_t w, Pred pred) {
  const std::span<const float> word =
      values.subspan(64 * w, std::min<std::size_t>(64, values.size() - 64 * w));
  // One 0/1 byte per element, in a loop the compiler vectorizes, then eight
  // bytes to eight bits at a time: the product moves byte i's bit to bit
  // 56 + i, and no other partial product reaches bits 56..63.
  static_assert(std::endian::native == std::endian::little);
  std::array<std::uint8_t, 64> flags{};
  for (std::size_t j = 0; j < word.size(); ++j) flags[j] = pred(key_of(word[j]));
  const auto eights = std::bit_cast<std::array<std::uint64_t, 8>>(flags);
  std::uint64_t bits = 0;
  for (std::size_t b = 0; b < 8; ++b) bits |= (eights[b] * 0x0102040810204080u >> 56) << (8 * b);
  return bits;
}

/// Inputs shorter than this take their first histogram serially: below it
/// the pool dispatch costs about what the pass does, and the per-chunk
/// partials (16 KB each) would be allocated for nothing.
constexpr std::size_t kParallelThreshold = std::size_t{1} << 16;

/// The k-th largest key of `values` (1 <= k <= n) as a float, with the
/// number of keys above it and equal to it.
TopKResult select_kth(std::span<const float> values, std::size_t k) {
  const auto count_top_digits = [&](std::size_t begin, std::size_t end) {
    Histogram part{};
    for (std::size_t i = begin; i < end; ++i) ++part[key_of(values[i]) >> kTopShift];
    return part;
  };
  Histogram h =
      values.size() < kParallelThreshold
          ? count_top_digits(0, values.size())
          : parallel::parallel_reduce<Histogram>(
                parallel::ThreadPool::global(), values.size(), Histogram{}, count_top_digits,
                [](Histogram a, const Histogram& b) {
                  for (std::size_t d = 0; d < kBins; ++d) a[d] += b[d];
                  return a;
                });
  Bin bin = bin_of_kth(h, k);
  Key prefix = bin.digit;
  std::size_t above = bin.above;

  // That bin's keys, found 64 values at a time; then digits 2 and 3 over
  // them alone.
  std::vector<Key> keys;
  keys.reserve(h[prefix]);
  for (std::size_t w = 0; 64 * w < values.size(); ++w) {
    for (std::uint64_t in_bin =
             word_bits(values, w, [prefix](Key key) { return key >> kTopShift == prefix; });
         in_bin != 0; in_bin &= in_bin - 1) {
      keys.push_back(key_of(values[64 * w + static_cast<std::size_t>(std::countr_zero(in_bin))]));
    }
  }
  for (const auto& [shift, width] : kLowDigits) {
    h.fill(0);
    for (const Key key : keys) ++h[(key >> shift) & ((Key{1} << width) - 1)];
    bin = bin_of_kth(h, k - above);
    prefix = (prefix << width) | bin.digit;
    above += bin.above;
    std::erase_if(keys, [shift, prefix](Key key) { return key >> shift != prefix; });
  }
  return {std::bit_cast<float>(prefix), above, keys.size()};
}

}  // namespace

TopKResult topk_threshold(std::span<const float> values, std::size_t k) {
  if (k == 0) {
    return {std::numeric_limits<float>::infinity(), 0, 0};
  }
  if (k > values.size()) {
    throw std::invalid_argument("topk_threshold: k exceeds element count");
  }
  return select_kth(values, k);
}

Bitmap topk_mask(std::span<const float> values, std::size_t k) {
  Bitmap mask(values.size());
  if (k >= values.size()) {
    for (std::size_t i = 0; i < values.size(); ++i) mask.set(i);
    return mask;
  }
  if (k == 0) return mask;
  const TopKResult sel = select_kth(values, k);
  const Key threshold = key_of(sel.threshold);
  // Keep every key above the threshold. When k keeps every tie too (the
  // usual case: one), that is every key at or above it; otherwise the
  // first k - above ties are added in index order below.
  const bool keep_ties = k - sel.above == sel.at_threshold;
  const Key lowest = keep_ties ? threshold : threshold + 1;
  const std::span<std::uint64_t> words = mask.words();
  parallel::parallel_for(
      parallel::ThreadPool::global(), words.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t w = begin; w < end; ++w) {
          words[w] = word_bits(values, w, [lowest](Key key) { return key >= lowest; });
        }
      });
  if (keep_ties) return mask;
  std::size_t ties_to_keep = k - sel.above;
  for (std::size_t w = 0; ties_to_keep > 0; ++w) {
    std::uint64_t ties = word_bits(values, w, [threshold](Key key) { return key == threshold; });
    for (; ties != 0 && ties_to_keep > 0; --ties_to_keep) {
      words[w] |= ties & -ties;
      ties &= ties - 1;
    }
  }
  return mask;
}

}  // namespace fftgrad::sparse
