// Every float bit pattern through the bulk RangeFloat::encode, the
// compressor's branch-free quantizer, against the scalar reference
// encode(x * scale), bit for bit: at scale 1 and at a scale that is not a
// power of two, so the product's rounding feeds the map. Covers signs,
// NaN payloads, subnormals, underflow, the max clamp and the negative
// saturation. The 2^32 patterns are split over ThreadPool::global().
// Labelled `exhaustive`: scripts/check.sh runs it as its own row under the
// default preset only.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/quant/range_float.h"

namespace fftgrad::quant {
namespace {

struct Mismatches {
  std::uint64_t count = 0;
  std::uint64_t first = std::uint64_t{1} << 32;  // lowest differing pattern
};

Mismatches count_mismatches(const RangeFloat& codec, float scale) {
  constexpr std::size_t kBlock = 4096;
  constexpr std::size_t kBlocks = (std::size_t{1} << 32) / kBlock;
  return parallel::parallel_reduce(
      parallel::ThreadPool::global(), kBlocks, Mismatches{},
      [&](std::size_t b0, std::size_t b1) {
        Mismatches part;
        std::array<float, kBlock> in;
        std::array<std::uint32_t, kBlock> out;
        for (std::size_t b = b0; b < b1; ++b) {
          const auto base = static_cast<std::uint32_t>(b * kBlock);
          for (std::uint32_t i = 0; i < kBlock; ++i) in[i] = std::bit_cast<float>(base + i);
          codec.encode(in, out, scale);
          for (std::uint32_t i = 0; i < kBlock; ++i) {
            if (out[i] != codec.encode(in[i] * scale)) {
              ++part.count;
              part.first = std::min<std::uint64_t>(part.first, base + i);
            }
          }
        }
        return part;
      },
      [](Mismatches a, const Mismatches& b) {
        return Mismatches{a.count + b.count, std::min(a.first, b.first)};
      });
}

/// The FFT codec's quantizer: 10 bits over the peak-normalized range.
TEST(RangeFloatExhaustive, BulkEncodeMatchesScalarOnEveryFloat) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  for (float scale : {1.0f, 0.3f}) {
    const Mismatches found = count_mismatches(codec, scale);
    EXPECT_EQ(found.count, 0u) << "scale " << scale << ": first differing input bits: 0x"
                               << std::hex << found.first;
  }
}

}  // namespace
}  // namespace fftgrad::quant
