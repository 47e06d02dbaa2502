// Every float bit pattern through quant::half_round_trip, the compressor's
// branch-free fp16 stage, against the scalar reference
// half_to_float(float_to_half(x)), bit for bit: signs, NaN payloads, float
// and half subnormals, the rounding ties and the saturation edge included.
// The 2^32 patterns are split over ThreadPool::global() (~7 s on 4 cores in
// a Release build). Labelled `exhaustive`: scripts/check.sh runs it as its
// own row under the default preset only.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/quant/half.h"

namespace fftgrad::quant {
namespace {

struct Mismatches {
  std::uint64_t count = 0;
  std::uint64_t first = std::uint64_t{1} << 32;  // lowest differing pattern
};

TEST(HalfExhaustive, RoundTripMatchesScalarOnEveryFloat) {
  constexpr std::size_t kBlock = 4096;
  constexpr std::size_t kBlocks = (std::size_t{1} << 32) / kBlock;
  const Mismatches found = parallel::parallel_reduce(
      parallel::ThreadPool::global(), kBlocks, Mismatches{},
      [](std::size_t b0, std::size_t b1) {
        Mismatches part;
        std::array<float, kBlock> in;
        std::array<float, kBlock> out;
        for (std::size_t b = b0; b < b1; ++b) {
          const auto base = static_cast<std::uint32_t>(b * kBlock);
          for (std::uint32_t i = 0; i < kBlock; ++i) in[i] = std::bit_cast<float>(base + i);
          half_round_trip(in, out);
          for (std::uint32_t i = 0; i < kBlock; ++i) {
            const auto want = std::bit_cast<std::uint32_t>(half_to_float(float_to_half(in[i])));
            if (std::bit_cast<std::uint32_t>(out[i]) != want) {
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
  EXPECT_EQ(found.count, 0u) << "first differing input bits: 0x" << std::hex << found.first;
}

}  // namespace
}  // namespace fftgrad::quant
