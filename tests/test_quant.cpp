#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fftgrad/quant/half.h"
#include "fftgrad/quant/range_float.h"
#include "fftgrad/quant/simple_quantizers.h"
#include "fftgrad/util/rng.h"

namespace fftgrad::quant {
namespace {

// ---------------------------------------------------------------------------
// Half

TEST(Half, ExactValuesSurviveRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f, 1024.0f, 0.0009765625f}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(Half, RelativeErrorBoundedForNormals) {
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.uniform(-10.0, 10.0));
    if (std::fabs(v) < 1e-3f) continue;
    const float r = half_to_float(float_to_half(v));
    // binary16 has 11 significand bits: relative error <= 2^-11.
    EXPECT_LE(std::fabs(r - v) / std::fabs(v), 1.0f / 2048.0f) << v;
  }
}

TEST(Half, OverflowSaturatesToInfinity) {
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(1e30f))));
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(-1e30f))));
  EXPECT_LT(half_to_float(float_to_half(-1e30f)), 0.0f);
}

TEST(Half, MaxHalfIsPreserved) {
  EXPECT_EQ(half_to_float(float_to_half(65504.0f)), 65504.0f);
}

TEST(Half, SubnormalsRoundTripApproximately) {
  const float tiny = 1e-6f;  // subnormal in binary16 (min normal ~6.1e-5)
  const float r = half_to_float(float_to_half(tiny));
  EXPECT_NEAR(r, tiny, 6e-8f);  // within one subnormal quantum (2^-24)
}

TEST(Half, UnderflowGoesToSignedZero) {
  EXPECT_EQ(half_to_float(float_to_half(1e-12f)), 0.0f);
  EXPECT_EQ(half_to_float(float_to_half(-1e-12f)), 0.0f);
  EXPECT_TRUE(std::signbit(half_to_float(float_to_half(-1e-12f))));
}

TEST(Half, NanPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(nan))));
}

TEST(Half, RoundsToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10; ties-to-even
  // rounds down to 1.0 (even mantissa).
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(half_to_float(float_to_half(halfway)), 1.0f);
  // Just above halfway must round up.
  const float above = 1.0f + std::ldexp(1.0f, -11) + std::ldexp(1.0f, -20);
  EXPECT_EQ(half_to_float(float_to_half(above)), 1.0f + std::ldexp(1.0f, -10));
}

TEST(Half, BulkConversionMatchesScalar) {
  util::Rng rng(2);
  std::vector<float> in(1000);
  for (float& v : in) v = static_cast<float>(rng.normal());
  std::vector<float> bulk(in.size());
  half_round_trip(in, bulk);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(bulk[i], half_to_float(float_to_half(in[i])));
  }
}

TEST(Half, BulkRejectsSizeMismatch) {
  std::vector<float> in(4), out(5);
  EXPECT_THROW(half_round_trip(in, out), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RangeFloat

TEST(RangeFloat, ZeroMapsToCodeZeroAndBack) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  EXPECT_EQ(codec.encode(0.0f), 0u);
  EXPECT_EQ(codec.decode(0), 0.0f);
}

TEST(RangeFloat, CodeSpaceSplitsBetweenSigns) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  EXPECT_EQ(codec.code_count(), 1024u);
  // Zero + positives + negatives fill the code space (up to the rounding
  // of the eps search, which may leave a couple of codes unused).
  EXPECT_LE(codec.positive_codes() + codec.negative_codes() + 1, codec.code_count());
  EXPECT_GE(codec.positive_codes() + codec.negative_codes() + 3, codec.code_count());
  // Symmetric range: balanced split (paper: P converges to 2^N / 2).
  EXPECT_NEAR(static_cast<double>(codec.positive_codes()), 512.0, 2.0);
}

TEST(RangeFloat, AllOnesCodeDecodesNearMin) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  // The paper's tuning criterion: decompressing 1..1 lands on `min`.
  EXPECT_NEAR(codec.actual_min(), -1.0f, 0.05f);
  EXPECT_NEAR(codec.actual_max(), 1.0f, 0.05f);
}

TEST(RangeFloat, EncodeDecodeIsIdempotent) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  util::Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float once = codec.decode(codec.encode(v));
    const float twice = codec.decode(codec.encode(once));
    EXPECT_EQ(once, twice) << v;  // representable values are fixed points
  }
}

TEST(RangeFloat, DecodedValuesPreserveSign) {
  const RangeFloat codec = RangeFloat::tune(8, -0.5f, 0.5f);
  util::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, 0.2));
    const float r = codec.decode(codec.encode(v));
    if (r != 0.0f) {
      EXPECT_EQ(v > 0.0f, r > 0.0f) << v;
    }
  }
}

TEST(RangeFloat, RelativeErrorBoundedByMantissaWidth) {
  const RangeFloat codec = RangeFloat::tune(12, -1.0f, 1.0f);
  const int m = codec.params().mantissa_bits;
  util::Rng rng(5);
  int represented = 0;
  for (int i = 0; i < 5000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float r = codec.decode(codec.encode(v));
    if (r == 0.0f) continue;  // underflowed below eps
    ++represented;
    // Truncating to m mantissa bits gives relative error < 2^-m.
    EXPECT_LE(std::fabs(r - v) / std::fabs(v), std::ldexp(1.0f, -m) * 1.001f) << v;
  }
  EXPECT_GT(represented, 4000);
}

TEST(RangeFloat, SaturatesOutsideRange) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  const float high = codec.decode(codec.encode(100.0f));
  const float low = codec.decode(codec.encode(-100.0f));
  EXPECT_LE(high, codec.actual_max() * 1.0001f);
  EXPECT_GE(low, codec.actual_min() * 1.0001f);
  EXPECT_GT(high, 0.9f);
  EXPECT_LT(low, -0.9f);
}

TEST(RangeFloat, UnderflowsToZeroBelowEps) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  const float eps = codec.params().eps;
  EXPECT_EQ(codec.decode(codec.encode(eps * 0.4f)), 0.0f);
  EXPECT_NE(codec.decode(codec.encode(eps * 2.0f)), 0.0f);
}

TEST(RangeFloat, MonotoneOverPositives) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  float prev = 0.0f;
  for (std::uint32_t c = 1; c <= codec.positive_codes(); ++c) {
    const float v = codec.decode(c);
    EXPECT_GT(v, prev) << "code " << c;
    prev = v;
  }
}

TEST(RangeFloat, MonotoneOverNegatives) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  float prev = 0.0f;
  const std::uint32_t last = codec.positive_codes() + codec.negative_codes();
  for (std::uint32_t c = codec.positive_codes() + 1; c <= last; ++c) {
    const float v = codec.decode(c);
    EXPECT_LT(v, prev) << "code " << c;
    prev = v;
  }
}

TEST(RangeFloat, SpacingDoublesEveryTwoToTheM) {
  // The paper's key density property: diff doubles after 2^m codes, giving
  // a Gaussian-like distribution of representable values.
  RangeFloatParams params;
  params.bits = 10;
  params.mantissa_bits = 4;
  params.min = -1.0f;
  params.max = 1.0f;
  params.eps = 0.001f;
  const RangeFloat codec(params);
  const std::uint32_t m_codes = 16;  // 2^4
  // Pick an exponent-aligned run well inside the positive range.
  const float d1 = codec.decode(2 * m_codes + 2) - codec.decode(2 * m_codes + 1);
  const float d2 = codec.decode(3 * m_codes + 2) - codec.decode(3 * m_codes + 1);
  EXPECT_FLOAT_EQ(d2, 2.0f * d1);
}

TEST(RangeFloat, DensityConcentratesNearZero) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  const auto values = codec.representable_values();
  std::size_t near = 0, far = 0;
  for (float v : values) {
    const float a = std::fabs(v);
    if (a > 0.0f && a < 0.1f) ++near;
    if (a >= 0.9f) ++far;
  }
  EXPECT_GT(near, 4 * far);  // far more representable values near zero
}

TEST(RangeFloat, TuneRespectsAsymmetricRange) {
  const RangeFloat codec = RangeFloat::tune(10, -0.25f, 1.0f, {});
  EXPECT_NEAR(codec.actual_min(), -0.25f, 0.05f);
  EXPECT_NEAR(codec.actual_max(), 1.0f, 0.05f);
  EXPECT_GT(codec.positive_codes(), codec.negative_codes());
}

TEST(RangeFloat, TuneWithSamplePicksLowErrorMantissa) {
  util::Rng rng(6);
  std::vector<float> sample(4000);
  for (float& v : sample) v = static_cast<float>(rng.normal(0.0, 0.05));
  const RangeFloat tuned = RangeFloat::tune(10, -1.0f, 1.0f, sample);
  // Tuned codec should beat a deliberately bad fixed-m codec on the sample.
  RangeFloatParams bad_params = tuned.params();
  bad_params.mantissa_bits = 1;
  bad_params.eps = 0.002f;
  const RangeFloat bad(bad_params);
  double tuned_err = 0.0, bad_err = 0.0;
  for (float v : sample) {
    const double dt = v - tuned.decode(tuned.encode(v));
    const double db = v - bad.decode(bad.encode(v));
    tuned_err += dt * dt;
    bad_err += db * db;
  }
  EXPECT_LE(tuned_err, bad_err);
}

TEST(RangeFloat, RejectsInvalidConfigs) {
  EXPECT_THROW(RangeFloat::tune(2, -1.0f, 1.0f), std::invalid_argument);
  EXPECT_THROW(RangeFloat::tune(10, 0.5f, 1.0f), std::invalid_argument);   // min >= 0
  EXPECT_THROW(RangeFloat::tune(10, -1.0f, -0.5f), std::invalid_argument); // max <= 0
  RangeFloatParams p;
  p.bits = 10;
  p.mantissa_bits = 4;
  p.min = -1.0f;
  p.max = 1.0f;
  p.eps = 2.0f;  // eps above max
  EXPECT_THROW(RangeFloat{p}, std::invalid_argument);
}

TEST(RangeFloat, NanEncodesToZero) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  EXPECT_EQ(codec.encode(std::numeric_limits<float>::quiet_NaN()), 0u);
}

TEST(RangeFloat, TruncateNeverOvershootsMagnitude) {
  const RangeFloat codec = RangeFloat::tune(10, -1.0f, 1.0f);
  util::Rng rng(81);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float r = codec.decode(codec.encode(v));
    EXPECT_LE(std::fabs(r), std::fabs(v) * 1.0000001f) << v;  // round toward zero
  }
}

std::vector<RangeFloat> saturation_codecs() {
  RangeFloatParams fixed;
  fixed.bits = 8;
  fixed.mantissa_bits = 2;
  fixed.min = -0.5f;
  fixed.max = 2.0f;
  fixed.eps = 0.01f;
  return {RangeFloat::tune(10, -1.0f, 1.0f), RangeFloat::tune(6, -0.25f, 1.0f),
          RangeFloat::tune(16, -1.0f, 0.5f), RangeFloat(fixed)};
}

TEST(RangeFloat, PositiveSaturationIsTheLastPositiveCode) {
  // Truncation never rounds past max: max and everything above it land on
  // code P, the largest positive representable value.
  for (const RangeFloat& codec : saturation_codecs()) {
    const std::uint32_t last = codec.positive_codes();
    EXPECT_EQ(codec.encode(codec.params().max), last);
    EXPECT_EQ(codec.encode(std::numeric_limits<float>::max()), last);
    EXPECT_EQ(codec.encode(std::numeric_limits<float>::infinity()), last);
    EXPECT_EQ(codec.decode(last), codec.actual_max());
  }
}

TEST(RangeFloat, NegativeSaturationIsTheLastNegativeCode) {
  for (const RangeFloat& codec : saturation_codecs()) {
    const std::uint32_t last = codec.positive_codes() + codec.negative_codes();
    EXPECT_EQ(codec.encode(codec.params().min), last);
    EXPECT_EQ(codec.encode(-std::numeric_limits<float>::max()), last);
    EXPECT_EQ(codec.encode(-std::numeric_limits<float>::infinity()), last);
    EXPECT_EQ(codec.decode(last), codec.actual_min());
  }
}

/// A float's bits (the bulk maps must match the scalar ones bit for bit,
/// signed zeros included).
std::uint32_t float_bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// The bulk decode maps the code's bits without a branch; it must give
/// decode(code) * scale for every code of each width, the codes past the
/// negative cap and bits above the width included.
TEST(RangeFloat, BulkDecodeMatchesScalarOnEveryCode) {
  for (int bits : {3, 10, 16, 23}) {
    // The asymmetric range leaves codes past the negative cap unused.
    const RangeFloat codec = RangeFloat::tune(bits, -0.25f, 1.0f);
    const std::uint32_t count = codec.code_count();
    std::vector<std::uint32_t> codes(std::size_t{count} + 3);
    for (std::uint32_t c = 0; c < count; ++c) codes[c] = c;
    codes[count] = count;  // only a bit above the width: code 0
    codes[count + 1] = count + codec.positive_codes();
    codes[count + 2] = 0xffffffffu;
    std::vector<float> out(codes.size());
    for (float scale : {1.0f, 0.3f}) {
      codec.decode(codes, out, scale);
      for (std::size_t i = 0; i < codes.size(); ++i) {
        ASSERT_EQ(float_bits(out[i]), float_bits(codec.decode(codes[i]) * scale))
            << "bits " << bits << " scale " << scale << " code " << codes[i];
      }
    }
  }
}

/// The bulk encode against encode(x * scale) on the values where its masks
/// matter: signed zeros, eps and max and their neighbours, underflow,
/// saturation, infinities, NaNs and subnormals, plus gradient-like values.
/// ctest -L exhaustive runs it on every float.
TEST(RangeFloat, BulkEncodeMatchesScalarOnEdgeValues) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  util::Rng rng(11);
  for (const RangeFloat& codec : saturation_codecs()) {
    const RangeFloatParams& p = codec.params();
    std::vector<float> in = {0.0f, -0.0f, kInf, -kInf,
                             std::numeric_limits<float>::quiet_NaN(),
                             -std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min(),
                             std::numeric_limits<float>::max(), -std::numeric_limits<float>::max()};
    for (float edge : {p.eps, p.max, p.min, codec.actual_min(), codec.actual_max()}) {
      for (float v : {edge, -edge}) {
        in.push_back(v);
        in.push_back(std::nextafter(v, kInf));
        in.push_back(std::nextafter(v, -kInf));
      }
    }
    for (int i = 0; i < 4000; ++i) in.push_back(static_cast<float>(rng.normal(0.0, 0.3)));
    std::vector<std::uint32_t> out(in.size());
    for (float scale : {1.0f, 0.3f, 3.7f}) {
      codec.encode(in, out, scale);
      for (std::size_t i = 0; i < in.size(); ++i) {
        ASSERT_EQ(out[i], codec.encode(in[i] * scale))
            << "x " << in[i] << " scale " << scale << " bits " << p.bits;
      }
    }
  }
}

class RangeFloatBits : public ::testing::TestWithParam<int> {};

TEST_P(RangeFloatBits, MedianCoordinateErrorBeatsUniformAtLowWidths) {
  // What the paper's design optimizes (Figs 7/15e): precision where the
  // data mass is. For zero-peaked gradient-like data the range float's
  // *median* per-coordinate error beats a same-width uniform quantizer —
  // most coordinates are small and get log-scale resolution. (Uniform wins
  // worst-case/p99 error by construction; see bench_fig07 for the full
  // quantile picture.)
  const int bits = GetParam();
  util::Rng rng(7);
  std::vector<float> sample(4000);
  for (float& v : sample) v = static_cast<float>(rng.normal(0.0, 0.1));
  const RangeFloat codec = RangeFloat::tune(bits, -1.0f, 1.0f, sample);
  const UniformQuantizer uniform(bits, -1.0f, 1.0f);
  std::vector<double> ranged_err, uniform_err;
  for (float v : sample) {
    ranged_err.push_back(std::fabs(v - codec.decode(codec.encode(v))));
    uniform_err.push_back(std::fabs(v - uniform.decode(uniform.encode(v))));
  }
  std::sort(ranged_err.begin(), ranged_err.end());
  std::sort(uniform_err.begin(), uniform_err.end());
  const std::size_t mid = sample.size() / 2;
  if (bits <= 10) {
    EXPECT_LT(ranged_err[mid], uniform_err[mid]) << "bits=" << bits;
  }
  // At any width the median error stays within 2x of uniform's.
  EXPECT_LT(ranged_err[mid], 2.0 * uniform_err[mid]) << "bits=" << bits;
}

TEST(RangeFloatBitsMonotone, ErrorDecreasesWithWidth) {
  util::Rng rng(8);
  std::vector<float> sample(4000);
  for (float& v : sample) v = static_cast<float>(rng.normal(0.0, 0.1));
  double previous = std::numeric_limits<double>::infinity();
  for (int bits : {6, 8, 10, 12, 14}) {
    const RangeFloat codec = RangeFloat::tune(bits, -1.0f, 1.0f, sample);
    double err = 0.0;
    for (float v : sample) {
      const double d = v - codec.decode(codec.encode(v));
      err += d * d;
    }
    EXPECT_LE(err, previous) << "bits=" << bits;
    previous = err;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RangeFloatBits, ::testing::Values(6, 8, 10, 12, 14, 16));

// ---------------------------------------------------------------------------
// Code packing

/// The stream pack_codes writes, one bit at a time: bit b of code i is
/// stream bit i * bits + b, stream bit j is bit j % 8 of byte j / 8.
std::vector<std::uint8_t> bitwise_reference(const std::vector<std::uint32_t>& codes, int bits) {
  const auto width = static_cast<std::size_t>(bits);
  std::vector<std::uint8_t> bytes((codes.size() * width + 7) / 8, 0);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    for (std::size_t b = 0; b < width; ++b) {
      if ((codes[i] >> b) & 1u) {
        const std::size_t j = i * width + b;
        bytes[j / 8] = static_cast<std::uint8_t>(bytes[j / 8] | (1u << (j % 8)));
      }
    }
  }
  return bytes;
}

TEST(PackCodes, RoundTripsExactly) {
  util::Rng rng(8);
  for (int bits : {1, 2, 3, 7, 8, 10, 13, 16, 24, 32}) {
    // 257 codes end the stream mid-word for every width; 64 and 3 check
    // streams that are all whole words and shorter than one.
    for (std::size_t count : {257u, 64u, 3u}) {
      std::vector<std::uint32_t> codes(count);
      const std::uint64_t mask = bits == 32 ? 0xffffffffull : ((1ull << bits) - 1);
      for (auto& c : codes) c = static_cast<std::uint32_t>(rng.next_u64() & mask);
      std::vector<std::uint8_t> bytes;
      pack_codes(codes, bits, bytes);
      EXPECT_EQ(bytes, bitwise_reference(codes, bits)) << "bits=" << bits << " count=" << count;
      std::vector<std::uint32_t> unpacked(count);
      const auto released = unpack_codes(bytes, bits, unpacked)
                                 .release([&](std::span<const std::uint32_t> c) {
                                   return c.size() == codes.size();
                                 }, "round-trip codes");
      EXPECT_EQ(released.data(), unpacked.data());
      EXPECT_EQ(unpacked, codes) << "bits=" << bits << " count=" << count;
    }
  }
}

TEST(PackCodes, AppendsAndDropsBitsAboveTheWidth) {
  const std::vector<std::uint32_t> codes = {0xffffffffu, 0x12345u, 0x3ffu, 0u, 0x400u};
  std::vector<std::uint8_t> bytes = {0xaa, 0xbb};
  pack_codes(codes, 10, bytes);
  std::vector<std::uint32_t> low(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) low[i] = codes[i] & 0x3ffu;
  std::vector<std::uint8_t> expected = {0xaa, 0xbb};
  const std::vector<std::uint8_t> stream = bitwise_reference(low, 10);
  expected.insert(expected.end(), stream.begin(), stream.end());
  EXPECT_EQ(bytes, expected);
}

TEST(PackCodes, EmptyInputYieldsEmptyOutput) {
  std::vector<std::uint8_t> bytes;
  pack_codes({}, 10, bytes);
  EXPECT_TRUE(bytes.empty());
  EXPECT_TRUE(unpack_codes({}, 10, {})
                  .release([](std::span<const std::uint32_t> c) { return c.empty(); },
                           "empty codes")
                  .empty());
}

TEST(PackCodes, UnpackRejectsShortStream) {
  std::vector<std::uint8_t> bytes(2, 0xff);
  std::vector<std::uint32_t> codes(3, 7u);
  EXPECT_THROW((void)unpack_codes(bytes, 10, codes), std::invalid_argument);
  EXPECT_EQ(codes, std::vector<std::uint32_t>(3, 7u));
}

// ---------------------------------------------------------------------------
// UniformQuantizer / IeeeNbitQuantizer

TEST(UniformQuantizer, ErrorBoundedByHalfBin) {
  UniformQuantizer q(8, -1.0f, 1.0f);
  const float bin = 2.0f / 256.0f;
  util::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
    EXPECT_LE(std::fabs(q.decode(q.encode(v)) - v), bin / 2.0f + 1e-6f);
  }
}

TEST(UniformQuantizer, ClampsOutOfRange) {
  UniformQuantizer q(4, -1.0f, 1.0f);
  EXPECT_EQ(q.encode(5.0f), q.code_count() - 1);
  EXPECT_EQ(q.encode(-5.0f), 0u);
}

TEST(UniformQuantizer, RepresentablesAreUniformlySpaced) {
  UniformQuantizer q(4, 0.0f, 16.0f);
  const auto values = q.representable_values();
  ASSERT_EQ(values.size(), 16u);
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_FLOAT_EQ(values[i] - values[i - 1], 1.0f);
  }
}

TEST(IeeeNbit, HalfConfigMatchesBinary16Constants) {
  IeeeNbitQuantizer q(16, 5);
  EXPECT_EQ(q.mantissa_bits(), 10);
  EXPECT_FLOAT_EQ(q.max_value(), 65504.0f);
  EXPECT_FLOAT_EQ(q.min_normal(), 6.103515625e-05f);
}

TEST(IeeeNbit, RoundTripKeepsRepresentableValues) {
  IeeeNbitQuantizer q(8, 4);
  for (float v : q.representable_values()) {
    EXPECT_FLOAT_EQ(q.round_trip(v), v);
    EXPECT_FLOAT_EQ(q.round_trip(-v), -v);
  }
}

TEST(IeeeNbit, SaturatesAtMaxValue) {
  IeeeNbitQuantizer q(8, 4);
  EXPECT_FLOAT_EQ(q.round_trip(1e10f), q.max_value());
  EXPECT_FLOAT_EQ(q.round_trip(-1e10f), -q.max_value());
}

TEST(IeeeNbit, RejectsDegenerateFieldSplit) {
  EXPECT_THROW(IeeeNbitQuantizer(8, 7), std::invalid_argument);
  EXPECT_THROW(IeeeNbitQuantizer(8, 0), std::invalid_argument);
}

}  // namespace
}  // namespace fftgrad::quant
