// Property-based sweeps across the codec matrix and the FFT substrate:
// invariants that must hold for every (algorithm, gradient size, theta)
// combination, plus Fourier-analytic identities (conjugate symmetry, shift
// theorem, impulse/constant responses) that pin down the FFT implementation
// beyond round-trip checks.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fftgrad/core/compression_stats.h"
#include "fftgrad/core/registry.h"
#include "fftgrad/fft/fft.h"
#include "fftgrad/util/rng.h"
#include "fftgrad/util/stats.h"

namespace fftgrad {
namespace {

std::vector<float> gradient_like(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> g(n);
  for (float& v : g) v = static_cast<float>(rng.normal(0.0, 0.02));
  return g;
}

double tensor_mean(std::span<const float> v) {
  double acc = 0.0;
  for (float x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Codec matrix invariants

// std::string, not const char*: ctest names the cases by their printed
// parameters, and gtest prints a const char* with its address.
using CodecCase = std::tuple<std::string, std::size_t>;

class CodecMatrix : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecMatrix, RoundTripInvariants) {
  const auto [spec, n] = GetParam();
  auto codec = core::make_compressor(spec);
  const auto g = gradient_like(n, n * 13 + 1);

  const core::Packet packet = codec->compress(g);
  // Invariant 1: the packet reports the right element count.
  EXPECT_EQ(packet.elements, n);
  // Invariant 2: ratio is consistent with wire size.
  if (!packet.bytes.empty()) {
    EXPECT_NEAR(packet.ratio(),
                static_cast<double>(n * 4) / static_cast<double>(packet.wire_bytes()), 1e-9);
  }
  // Invariant 3: decompression is deterministic.
  std::vector<float> a(n), b(n);
  codec->decompress(packet, a);
  codec->decompress(packet, b);
  EXPECT_EQ(a, b) << spec;
  // Invariant 4: reconstruction is finite everywhere.
  for (float v : a) ASSERT_TRUE(std::isfinite(v)) << spec;
  // Invariant 5: relative error is finite and non-negative.
  const double alpha = util::relative_error_alpha(g, a);
  EXPECT_GE(alpha, 0.0) << spec;
  EXPECT_TRUE(std::isfinite(alpha)) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CodecMatrix,
    ::testing::Combine(::testing::Values("none", "fp16", "onebit", "fft:theta=0.85,bits=10",
                                         "fft:theta=0.5,bits=0", "topk:theta=0.85",
                                         "qsgd:bits=3", "terngrad",
                                         "chunked:100[fft:theta=0.85,bits=10]"),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{63},
                                         std::size_t{64}, std::size_t{257},
                                         std::size_t{1000})));

class ThetaSweep : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ThetaSweep, WireSizeShrinksMonotonicallyWithTheta) {
  const auto [algo, theta] = GetParam();
  const auto g = gradient_like(4096, 7);
  const std::string spec = algo + ":theta=" + std::to_string(theta);
  const std::string spec_higher = algo + ":theta=" + std::to_string(theta + 0.08);
  auto low = core::make_compressor(spec);
  auto high = core::make_compressor(spec_higher);
  EXPECT_GE(low->compress(g).wire_bytes(), high->compress(g).wire_bytes()) << spec;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThetaSweep,
                         ::testing::Combine(::testing::Values("fft", "topk"),
                                            ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.85)));

TEST(CodecProperties, FftSparsificationIsNearIdempotent) {
  // Compressing an already-FFT-sparsified gradient again (no quantizer)
  // keeps nearly everything: its spectrum already has only (1-theta)*bins
  // non-trivial components. (fp16 re-rounding adds a little noise, so we
  // disable that stage here.)
  auto codec = core::make_compressor("fft:theta=0.85,bits=0,fp16=0");
  const auto g = gradient_like(2048, 9);
  std::vector<float> once(g.size()), twice(g.size());
  codec->decompress(codec->compress(g), once);
  codec->decompress(codec->compress(once), twice);
  const double first_err = util::relative_error_alpha(g, once);
  const double second_err = util::relative_error_alpha(once, twice);
  EXPECT_LT(second_err, first_err * 0.25);
}

TEST(CodecProperties, TopKIdempotent) {
  auto codec = core::make_compressor("topk:theta=0.85");
  const auto g = gradient_like(2048, 10);
  std::vector<float> once(g.size()), twice(g.size());
  codec->decompress(codec->compress(g), once);
  codec->decompress(codec->compress(once), twice);
  EXPECT_EQ(once, twice);  // exactly idempotent: survivors are exact copies
}

TEST(CodecProperties, ScalingGradientScalesFftReconstruction) {
  // The peak-normalized pipeline is (approximately) positively homogeneous.
  auto codec = core::make_compressor("fft:theta=0.5,bits=10");
  const auto g = gradient_like(1024, 11);
  std::vector<float> scaled(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) scaled[i] = 8.0f * g[i];
  std::vector<float> r1(g.size()), r2(g.size());
  codec->decompress(codec->compress(g), r1);
  auto codec2 = core::make_compressor("fft:theta=0.5,bits=10");
  codec2->decompress(codec2->compress(scaled), r2);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(r2[i], 8.0f * r1[i], 0.05f * std::fabs(8.0f * r1[i]) + 1e-4f) << i;
  }
}

// ---------------------------------------------------------------------------
// Fourier-analytic identities

TEST(FftIdentities, RealSpectrumIsConjugateSymmetric) {
  const std::size_t n = 96;
  util::Rng rng(12);
  std::vector<fft::cfloat> signal(n);
  for (auto& v : signal) v = fft::cfloat(static_cast<float>(rng.normal()), 0.0f);
  const auto spectrum = fft::fft(signal);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(spectrum[k].real(), spectrum[n - k].real(), 1e-3f) << k;
    EXPECT_NEAR(spectrum[k].imag(), -spectrum[n - k].imag(), 1e-3f) << k;
  }
}

TEST(FftIdentities, TimeShiftMultipliesByPhase) {
  const std::size_t n = 64;
  util::Rng rng(13);
  std::vector<float> signal(n);
  for (float& v : signal) v = static_cast<float>(rng.normal());
  std::vector<float> shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = signal[(i + n - 1) % n];  // delay by 1
  const auto a = fft::rfft(signal);
  const auto b = fft::rfft(shifted);
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double angle = -2.0 * 3.14159265358979323846 * static_cast<double>(k) / n;
    const fft::cfloat phase(static_cast<float>(std::cos(angle)),
                            static_cast<float>(std::sin(angle)));
    const fft::cfloat expected = a[k] * phase;
    EXPECT_NEAR(b[k].real(), expected.real(), 1e-3f) << k;
    EXPECT_NEAR(b[k].imag(), expected.imag(), 1e-3f) << k;
  }
}

TEST(FftIdentities, ConstantSignalIsPureDc) {
  std::vector<float> constant(40, 2.5f);
  const auto bins = fft::rfft(constant);
  EXPECT_NEAR(bins[0].real(), 100.0f, 1e-3f);
  for (std::size_t k = 1; k < bins.size(); ++k) {
    EXPECT_NEAR(std::abs(bins[k]), 0.0f, 1e-3f) << k;
  }
}

TEST(FftIdentities, ImpulseHasFlatSpectrum) {
  std::vector<float> impulse(33, 0.0f);
  impulse[0] = 1.0f;
  const auto bins = fft::rfft(impulse);
  for (std::size_t k = 0; k < bins.size(); ++k) {
    EXPECT_NEAR(bins[k].real(), 1.0f, 1e-4f) << k;
    EXPECT_NEAR(bins[k].imag(), 0.0f, 1e-4f) << k;
  }
}

TEST(FftIdentities, RealRouteMatchesComplexRoute) {
  // rfft of a real signal must equal forward() of the same signal embedded
  // as complex, whichever route each takes. n = 128: a 64-point power-of-two
  // half plus the split pass against a 128-point power-of-two transform.
  // n = 100: a 50-point Bluestein half plus the split against a 100-point
  // Bluestein. n = 65: the full-length Bluestein path.
  for (const std::size_t n : {std::size_t{128}, std::size_t{100}, std::size_t{65}}) {
    util::Rng rng(14 + n);
    std::vector<float> signal(n);
    std::vector<fft::cfloat> embedded(n);
    for (std::size_t i = 0; i < n; ++i) {
      signal[i] = static_cast<float>(rng.normal());
      embedded[i] = fft::cfloat(signal[i], 0.0f);
    }
    const auto bins = fft::rfft(signal);
    const auto spectrum = fft::fft(embedded);
    ASSERT_EQ(bins.size(), n / 2 + 1);
    for (std::size_t k = 0; k < bins.size(); ++k) {
      EXPECT_NEAR(bins[k].real(), spectrum[k].real(), 1e-3f) << "n=" << n << " bin " << k;
      EXPECT_NEAR(bins[k].imag(), spectrum[k].imag(), 1e-3f) << "n=" << n << " bin " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Statistical invariants of the codecs on structured inputs

TEST(Distributional, FftPreservesMeanOfGradient) {
  // DC is always among the largest bins for a non-centered gradient, so the
  // gradient mean survives compression almost exactly.
  auto codec = core::make_compressor("fft:theta=0.9,bits=10");
  util::Rng rng(15);
  std::vector<float> g(2048);
  for (float& v : g) v = static_cast<float>(rng.normal(0.01, 0.02));  // non-zero mean
  std::vector<float> recon(g.size());
  codec->decompress(codec->compress(g), recon);
  const double mean_g = tensor_mean(g);
  const double mean_r = tensor_mean(recon);
  EXPECT_NEAR(mean_r, mean_g, std::fabs(mean_g) * 0.02);
}

TEST(Distributional, TernGradPreservesMeanInExpectationOnly) {
  auto codec = core::make_compressor("terngrad:seed=77");
  util::Rng rng(16);
  std::vector<float> g(512);
  for (float& v : g) v = static_cast<float>(rng.normal(0.05, 0.02));
  std::vector<float> recon(g.size());
  double mean_acc = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    codec->decompress(codec->compress(g), recon);
    mean_acc += tensor_mean(recon) / trials;
  }
  EXPECT_NEAR(mean_acc, tensor_mean(g), 0.005);
}

}  // namespace
}  // namespace fftgrad
