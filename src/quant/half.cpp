#include "fftgrad/quant/half.h"

#include <bit>
#include <stdexcept>

#include "fftgrad/parallel/parallel_for.h"

namespace fftgrad::quant {
namespace {

// Spans shorter than this convert serially; the pool dispatch overhead
// dominates below roughly this size.
constexpr std::size_t kParallelThreshold = 1 << 16;

std::uint16_t encode(float value) {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t abs = f & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf or NaN; preserve NaN-ness with a quiet mantissa bit.
    const std::uint32_t mantissa = abs > 0x7f800000u ? 0x0200u : 0u;
    return static_cast<std::uint16_t>(sign | 0x7c00u | mantissa);
  }
  if (abs >= 0x47800000u) {
    // Too large for half: saturate to infinity.
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs >= 0x38800000u) {
    // Normal half. Rebias exponent (127 -> 15) and round mantissa 23 -> 10
    // bits to nearest even.
    const std::uint32_t rebased = abs - 0x38000000u;  // subtract (127-15)<<23
    std::uint32_t half = rebased >> 13;
    const std::uint32_t remainder = rebased & 0x1fffu;
    if (remainder > 0x1000u || (remainder == 0x1000u && (half & 1u))) ++half;
    return static_cast<std::uint16_t>(sign | half);
  }
  if (abs >= 0x33000000u) {
    // Subnormal half: the result is round(|x| / 2^-24), i.e. the 24-bit
    // significand shifted right by (126 - e) with round-to-nearest-even.
    const std::uint32_t exponent = abs >> 23;
    const std::uint32_t mantissa = (abs & 0x7fffffu) | 0x800000u;
    const std::uint32_t shift = 126 - exponent;  // bits to discard, in [14, 24]
    std::uint32_t half = mantissa >> shift;
    const std::uint32_t mask = (1u << shift) - 1;
    const std::uint32_t remainder = mantissa & mask;
    const std::uint32_t halfway = 1u << (shift - 1);
    if (remainder > halfway || (remainder == halfway && (half & 1u))) ++half;
    return static_cast<std::uint16_t>(sign | half);
  }
  // Underflow to signed zero.
  return static_cast<std::uint16_t>(sign);
}

float decode(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exponent = (h >> 10) & 0x1fu;
  const std::uint32_t mantissa = h & 0x3ffu;

  std::uint32_t f;
  if (exponent == 0x1fu) {
    f = sign | 0x7f800000u | (mantissa << 13);  // inf / nan
  } else if (exponent != 0) {
    f = sign | ((exponent + 112u) << 23) | (mantissa << 13);  // normal
  } else if (mantissa != 0) {
    // Subnormal half: normalize. A value m*2^-24 with bit 10 set after k
    // shifts is 1.x * 2^(-15-k), i.e. float exponent field 113 - k.
    std::uint32_t m = mantissa;
    std::uint32_t e = 113;
    while ((m & 0x400u) == 0) {
      m <<= 1;
      --e;
    }
    f = sign | (e << 23) | ((m & 0x3ffu) << 13);
  } else {
    f = sign;  // signed zero
  }
  return std::bit_cast<float>(f);
}

/// All ones when `c` holds, else zero.
std::uint32_t all_ones_if(bool c) { return 0u - static_cast<std::uint32_t>(c); }

/// decode(encode(x)) without a branch, on the float's own bits, so the
/// loop over it runs on vector lanes. With a the magnitude bits:
///  - a >= 0x38800000 (2^-14, half's smallest normal): round the 23-bit
///    mantissa to half's 10 bits, ties to even, by an add and a mask. A
///    carry into the exponent is the correct rounding up.
///  - Below that, half is subnormal, with a fixed quantum of 2^-24. Near
///    0.5f one float ulp is 2^-24, so |x| + 0.5f rounds |x| to that quantum
///    (ties to even) and subtracting 0.5f again is exact.
///  - a >= 0x477ff000 (65520, halfway above half's largest finite 65504)
///    saturates to infinity. Every NaN becomes the quiet NaN decode gives.
/// The sign is put back last. Every case is computed and masks pick one:
/// with ?: the compiler moves the float addition under a branch, which
/// keeps the loop off vector lanes.
float round_trip(float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t a = bits & 0x7fffffffu;
  const std::uint32_t normal = (a + 0x0fffu + ((a >> 13) & 1u)) & 0xffffe000u;
  const std::uint32_t subnormal =
      std::bit_cast<std::uint32_t>((std::bit_cast<float>(a) + 0.5f) - 0.5f);
  const std::uint32_t below_normal = all_ones_if(a < 0x38800000u);
  const std::uint32_t overflow = all_ones_if(a >= 0x477ff000u);
  const std::uint32_t nan = all_ones_if(a > 0x7f800000u);
  std::uint32_t r = (subnormal & below_normal) | (normal & ~below_normal);
  r = (0x7f800000u & overflow) | (r & ~overflow);
  r = (0x7fc00000u & nan) | (r & ~nan);
  return std::bit_cast<float>(r | (bits & 0x80000000u));
}

}  // namespace

Half float_to_half(float value) { return Half{encode(value)}; }

float half_to_float(Half value) { return decode(value.bits); }

void float_to_half(std::span<const float> in, std::span<Half> out) {
  if (in.size() != out.size()) throw std::invalid_argument("float_to_half: size mismatch");
  if (in.size() < kParallelThreshold) {
    for (std::size_t i = 0; i < in.size(); ++i) out[i].bits = encode(in[i]);
    return;
  }
  parallel::parallel_for(in.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i].bits = encode(in[i]);
  });
}

void half_to_float(std::span<const Half> in, std::span<float> out) {
  if (in.size() != out.size()) throw std::invalid_argument("half_to_float: size mismatch");
  if (in.size() < kParallelThreshold) {
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = decode(in[i].bits);
    return;
  }
  parallel::parallel_for(in.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = decode(in[i].bits);
  });
}

void half_round_trip(std::span<const float> in, std::span<float> out) {
  if (in.size() != out.size()) throw std::invalid_argument("half_round_trip: size mismatch");
  auto convert = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = round_trip(in[i]);
  };
  if (in.size() < kParallelThreshold) {
    convert(0, in.size());
    return;
  }
  parallel::parallel_for(in.size(), convert);
}

}  // namespace fftgrad::quant
