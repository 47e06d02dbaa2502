#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/compression_stats.h"
#include "fftgrad/core/compressor.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/theta_schedule.h"
#include "fftgrad/nn/gradient_sampler.h"
#include "fftgrad/quant/half.h"
#include "fftgrad/sparse/mask_coding.h"
#include "fftgrad/sparse/topk.h"
#include "fftgrad/util/rng.h"
#include "fftgrad/util/stats.h"

namespace fftgrad::core {
namespace {

std::vector<float> gradient_like(std::size_t n, std::uint64_t seed, double stddev = 0.02) {
  util::Rng rng(seed);
  std::vector<float> g(n);
  for (float& v : g) v = static_cast<float>(rng.normal(0.0, stddev));
  // A few heavy-tail entries, as real gradients have.
  for (std::size_t i = 0; i < n / 50 + 1; ++i) {
    g[rng.uniform_index(n)] = static_cast<float>(rng.normal(0.0, stddev * 10));
  }
  return g;
}

// ---------------------------------------------------------------------------
// Wire helpers

TEST(Wire, PutGetRoundTrip) {
  std::vector<std::uint8_t> bytes;
  wire::put<std::uint64_t>(bytes, 0x1122334455667788ull);
  wire::put<float>(bytes, 1.5f);
  std::vector<float> values = {1.0f, 2.0f, 3.0f};
  wire::put_span<float>(bytes, values);
  wire::Reader reader(bytes);
  EXPECT_EQ(reader.get<std::uint64_t>(), 0x1122334455667788ull);
  EXPECT_EQ(reader.get<float>(), 1.5f);
  std::vector<float> out(3);
  reader.get_span<float>(out);
  EXPECT_EQ(out, values);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Wire, ReaderRejectsTruncatedPacket) {
  std::vector<std::uint8_t> bytes = {1, 2};
  wire::Reader reader(bytes);
  EXPECT_THROW(reader.get<std::uint64_t>(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Packet

TEST(Packet, RatioAgainstFloat32) {
  Packet p;
  p.elements = 100;
  p.bytes.resize(100);  // 400 raw bytes -> 100 wire bytes
  EXPECT_DOUBLE_EQ(p.ratio(), 4.0);
}

// ---------------------------------------------------------------------------
// NoopCompressor

TEST(Noop, IsLossless) {
  NoopCompressor codec;
  const auto g = gradient_like(1000, 1);
  std::vector<float> recon;
  const RoundTripStats stats = measure_round_trip(codec, g, recon);
  EXPECT_EQ(recon, g);
  EXPECT_DOUBLE_EQ(stats.alpha, 0.0);
  EXPECT_NEAR(stats.ratio, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// TopKCompressor

TEST(TopK, KeepsExactlyTheConfiguredFraction) {
  TopKCompressor codec(0.9);
  const auto g = gradient_like(1000, 2);
  std::vector<float> recon(g.size());
  const Packet p = codec.compress(g);
  codec.decompress(p, recon);
  std::size_t nonzero = 0;
  for (float v : recon) nonzero += v != 0.0f;
  EXPECT_EQ(nonzero, 100u);
}

TEST(TopK, SurvivorsAreExactCopies) {
  TopKCompressor codec(0.85);
  const auto g = gradient_like(2000, 3);
  std::vector<float> recon(g.size());
  codec.decompress(codec.compress(g), recon);
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (recon[i] != 0.0f) {
      EXPECT_EQ(recon[i], g[i]) << i;
    }
  }
}

TEST(TopK, DroppedValuesAreTheSmallest) {
  TopKCompressor codec(0.5);
  const auto g = gradient_like(500, 4);
  std::vector<float> recon(g.size());
  codec.decompress(codec.compress(g), recon);
  float max_dropped = 0.0f, min_kept = 1e30f;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float mag = std::fabs(g[i]);
    if (recon[i] == 0.0f) {
      max_dropped = std::max(max_dropped, mag);
    } else {
      min_kept = std::min(min_kept, mag);
    }
  }
  EXPECT_LE(max_dropped, min_kept);
}

// ---------------------------------------------------------------------------
// The exact-k mask both sparsifying codecs share (sparse::topk_mask): on
// inputs whose magnitudes all tie, each keeps exactly kept_target entries,
// lowest indices first.

/// The kept count a packet of either sparsifying codec declares: both
/// headers open with the element count and then the kept count.
std::uint64_t declared_kept(const Packet& packet) {
  wire::Reader reader(packet.bytes);
  (void)reader.get<std::uint64_t>();
  return reader.get<std::uint64_t>();
}

TEST(ExactKMask, TopKKeepsTheLowestIndicesOfAConstantGradient) {
  TopKCompressor codec(0.85);
  const std::vector<float> g(1000, 0.25f);
  const std::size_t kept_target = 150;  // llround(0.15 * 1000)
  const Packet p = codec.compress(g);
  EXPECT_EQ(declared_kept(p), kept_target);
  std::vector<float> recon(g.size());
  codec.decompress(p, recon);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(recon[i], i < kept_target ? 0.25f : 0.0f) << i;
  }
}

TEST(ExactKMask, FftKeepsTheLowestBinsOfAFlatSpectrum) {
  // A unit impulse of power-of-two length has every bin exactly 1 + 0i, so
  // every bin ties at the threshold.
  std::vector<float> impulse(1024, 0.0f);
  impulse[0] = 1.0f;
  const std::vector<fft::cfloat> spectrum = fft::rfft(impulse);
  for (const fft::cfloat& bin : spectrum) ASSERT_EQ(bin, fft::cfloat(1.0f, 0.0f));
  FftCompressor codec({.theta = 0.85, .quantizer_bits = 10});
  const std::size_t kept_target = 77;  // llround(0.15 * 513 bins)
  const Packet p = codec.compress(impulse);
  EXPECT_EQ(declared_kept(p), kept_target);
  // 1 and 0 survive fp16 and the range quantizer exactly, so the
  // reconstruction is the inverse transform of bins [0, kept_target).
  std::vector<fft::cfloat> lowest(spectrum.size());
  for (std::size_t k = 0; k < kept_target; ++k) lowest[k] = 1.0f;
  const std::vector<float> expected = fft::irfft(lowest, impulse.size());
  std::vector<float> recon(impulse.size());
  codec.decompress(p, recon);
  EXPECT_EQ(recon, expected);
}

/// The keep mask a packet of either sparsifying codec carries over `bins`
/// entries: after the element and kept counts, the FFT header adds a flags
/// byte (0 when unquantized), then both carry the encoded mask.
sparse::Bitmap carried_mask(const Packet& packet, std::size_t bins, bool fft_header) {
  wire::Reader reader(packet.bytes);
  (void)reader.get<std::uint64_t>();
  const auto kept = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (fft_header) {
    EXPECT_EQ(reader.get<std::uint8_t>(), 0u);
  }
  std::vector<std::uint8_t> mask_bytes(reader.get_count(sizeof(std::uint8_t)));
  reader.get_span<std::uint8_t>(mask_bytes);
  return std::move(sparse::decode_mask(mask_bytes, bins))
      .release([&](const sparse::Bitmap& m) { return m.count() == kept; }, "test keep-mask");
}

TEST(ExactKMask, TopKCarriesTopkMaskOfTiedMagnitudes) {
  // Four magnitude levels with mixed signs: the threshold falls inside a
  // run of ties.
  util::Rng rng(41);
  std::vector<float> g(2000);
  for (float& v : g) {
    const float level = 0.125f * static_cast<float>(1 + rng.uniform_index(4));
    v = rng.bernoulli(0.5) ? level : -level;
  }
  std::vector<float> magnitudes(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) magnitudes[i] = std::fabs(g[i]);
  TopKCompressor codec(0.7);
  const Packet p = codec.compress(g);
  EXPECT_EQ(declared_kept(p), 600u);  // llround(0.3 * 2000)
  EXPECT_TRUE(carried_mask(p, g.size(), false) == sparse::topk_mask(magnitudes, 600));
}

class FftKeepSet : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftKeepSet, IsTopkMaskOfTheBinModuli) {
  // Power-of-two, even and odd lengths take the radix-2, half-length and
  // Bluestein transforms.
  const std::size_t n = GetParam();
  const auto g = gradient_like(n, n + 5);
  FftCompressor codec({.theta = 0.85, .quantizer_bits = 0});
  const Packet p = codec.compress(g);
  // Stages 2-4 by hand: fp16 round trip, real FFT, bin moduli.
  std::vector<float> signal(n);
  quant::half_round_trip(g, signal);
  const fft::FftPlan plan(n);
  std::vector<fft::cfloat> spectrum(plan.real_bins());
  plan.rfft(signal, spectrum);
  std::vector<float> moduli(spectrum.size());
  for (std::size_t k = 0; k < spectrum.size(); ++k) moduli[k] = std::abs(spectrum[k]);
  const auto kept_target = static_cast<std::size_t>(
      std::llround((1.0 - 0.85) * static_cast<double>(spectrum.size())));
  EXPECT_EQ(declared_kept(p), kept_target);
  EXPECT_TRUE(carried_mask(p, spectrum.size(), true) == sparse::topk_mask(moduli, kept_target));
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftKeepSet, ::testing::Values(1024, 1000, 4097));

TEST(TopK, ThetaZeroIsLossless) {
  TopKCompressor codec(0.0);
  const auto g = gradient_like(777, 6);
  std::vector<float> recon(g.size());
  codec.decompress(codec.compress(g), recon);
  EXPECT_EQ(recon, g);
}

TEST(TopK, RatioApproachesTheoreticalBound) {
  // theta=0.85: values alone would give 6.67x; the bitmap overhead lowers it.
  TopKCompressor codec(0.85);
  const auto g = gradient_like(100000, 5);
  const Packet p = codec.compress(g);
  EXPECT_GT(p.ratio(), 4.0);
  EXPECT_LT(p.ratio(), 6.67);
}

TEST(TopK, SetThetaTakesEffect) {
  TopKCompressor codec(0.5);
  codec.set_theta(0.99);
  const auto g = gradient_like(1000, 6);
  std::vector<float> recon(g.size());
  codec.decompress(codec.compress(g), recon);
  std::size_t nonzero = 0;
  for (float v : recon) nonzero += v != 0.0f;
  EXPECT_EQ(nonzero, 10u);
}

TEST(TopK, RejectsInvalidTheta) {
  EXPECT_THROW(TopKCompressor(1.0), std::invalid_argument);
  EXPECT_THROW(TopKCompressor(-0.1), std::invalid_argument);
  TopKCompressor codec(0.5);
  EXPECT_THROW(codec.set_theta(1.5), std::invalid_argument);
}

TEST(TopK, EmptyGradient) {
  TopKCompressor codec(0.85);
  std::vector<float> empty;
  const Packet p = codec.compress(empty);
  EXPECT_EQ(p.elements, 0u);
  std::vector<float> out;
  codec.decompress(p, out);  // must not throw
}

// ---------------------------------------------------------------------------
// QsgdCompressor

TEST(Qsgd, ReconstructionIsUnbiasedInExpectation) {
  QsgdCompressor codec(3, /*seed=*/7);
  std::vector<float> g = {0.5f, -0.25f, 0.1f, 0.0f};
  std::vector<float> mean(g.size(), 0.0f);
  const int trials = 4000;
  std::vector<float> recon(g.size());
  for (int t = 0; t < trials; ++t) {
    codec.decompress(codec.compress(g), recon);
    for (std::size_t i = 0; i < g.size(); ++i) mean[i] += recon[i] / trials;
  }
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(mean[i], g[i], 0.02) << i;
}

TEST(Qsgd, ValuesComeFromDiscreteSet) {
  QsgdCompressor codec(3, 8);
  const auto g = gradient_like(500, 8);
  const float norm = static_cast<float>(util::l2_norm(g));
  std::vector<float> recon(g.size());
  codec.decompress(codec.compress(g), recon);
  const float s = static_cast<float>(codec.levels());
  for (float v : recon) {
    const float level = std::fabs(v) / norm * s;
    EXPECT_NEAR(level, std::round(level), 1e-3f) << v;
  }
}

TEST(Qsgd, ZeroGradientStaysZero) {
  QsgdCompressor codec(3);
  std::vector<float> zeros(64, 0.0f);
  std::vector<float> recon(64);
  codec.decompress(codec.compress(zeros), recon);
  for (float v : recon) EXPECT_EQ(v, 0.0f);
}

TEST(Qsgd, WireSizeMatchesBitsPerElement) {
  QsgdCompressor codec(3);
  const auto g = gradient_like(8000, 9);
  const Packet p = codec.compress(g);
  // 8 bytes n + 4 bytes norm + ceil(3 * 8000 / 8) payload.
  EXPECT_EQ(p.wire_bytes(), 8u + 4u + 3000u);
  EXPECT_NEAR(p.ratio(), 32.0 / 3.0, 0.1);
}

TEST(Qsgd, RejectsBadBitWidths) {
  EXPECT_THROW(QsgdCompressor(1), std::invalid_argument);
  EXPECT_THROW(QsgdCompressor(17), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TernGradCompressor

TEST(TernGrad, ValuesAreTernary) {
  TernGradCompressor codec(10);
  const auto g = gradient_like(1000, 10);
  float scale = 0.0f;
  for (float v : g) scale = std::max(scale, std::fabs(v));
  std::vector<float> recon(g.size());
  codec.decompress(codec.compress(g), recon);
  for (float v : recon) {
    EXPECT_TRUE(v == 0.0f || std::fabs(std::fabs(v) - scale) < 1e-6f) << v;
  }
}

TEST(TernGrad, ReconstructionIsUnbiasedInExpectation) {
  TernGradCompressor codec(11);
  std::vector<float> g = {0.4f, -0.2f, 0.0f, 1.0f};
  std::vector<float> mean(g.size(), 0.0f);
  std::vector<float> recon(g.size());
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    codec.decompress(codec.compress(g), recon);
    for (std::size_t i = 0; i < g.size(); ++i) mean[i] += recon[i] / trials;
  }
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(mean[i], g[i], 0.05) << i;
}

TEST(TernGrad, CompressionRatioNearSixteen) {
  TernGradCompressor codec;
  const auto g = gradient_like(100000, 12);
  EXPECT_NEAR(codec.compress(g).ratio(), 16.0, 0.1);
}

TEST(TernGrad, RejectsOutOfCodeSpaceWireValue) {
  // Regression for a latent trust bug the Untrusted<T> refactor surfaced:
  // the ternary code space is {0, +1, -1} but the 2-bit wire field can
  // carry a 3, which the old decoder silently decoded as -scale. The
  // receiver-side validator must reject it as a TaintError (well-formed
  // bytes violating expectations), not std::runtime_error corruption.
  TernGradCompressor codec(13);
  std::vector<float> g = {0.5f, -0.5f, 0.25f, -0.25f};
  Packet packet = codec.compress(g);
  // Wire layout: uint64 element count, float scale, then the packed 2-bit
  // codes — four codes in the byte at offset 12. Force them all to 3.
  ASSERT_GT(packet.bytes.size(), 12u);
  packet.bytes[12] = 0xFF;
  std::vector<float> recon(g.size());
  EXPECT_THROW(codec.decompress(packet, recon), fftgrad::util::TaintError);
}

// ---------------------------------------------------------------------------
// FftCompressor

TEST(Fft, ReconstructionHasLowRelativeError) {
  FftCompressor codec({.theta = 0.5, .quantizer_bits = 10});
  const auto g = gradient_like(4096, 13);
  std::vector<float> recon;
  const RoundTripStats stats = measure_round_trip(codec, g, recon);
  EXPECT_LT(stats.alpha, 0.75);
  EXPECT_GT(stats.ratio, 3.0);
}

TEST(Fft, ThetaZeroWithoutQuantIsNearLossless) {
  FftCompressor codec({.theta = 0.0, .quantizer_bits = 0, .use_fp16_stage = false});
  const auto g = gradient_like(1024, 14);
  std::vector<float> recon;
  const RoundTripStats stats = measure_round_trip(codec, g, recon);
  EXPECT_LT(stats.alpha, 1e-4);
}

TEST(Fft, Fp16StageBoundsErrorWhenOtherwiseLossless) {
  FftCompressor codec({.theta = 0.0, .quantizer_bits = 0, .use_fp16_stage = true});
  const auto g = gradient_like(1024, 15);
  std::vector<float> recon;
  const RoundTripStats stats = measure_round_trip(codec, g, recon);
  EXPECT_LT(stats.alpha, 2e-3);  // fp16 keeps ~11 significant bits
}

class FftThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(FftThetaSweep, AlphaIsBelowOneAndGrowsWithTheta) {
  const double theta = GetParam();
  FftCompressor codec({.theta = theta, .quantizer_bits = 10});
  const auto g = gradient_like(8192, 16);
  std::vector<float> recon;
  const RoundTripStats stats = measure_round_trip(codec, g, recon);
  // Assumption 3.2: alpha in [0, 1] in practice.
  EXPECT_GE(stats.alpha, 0.0);
  EXPECT_LT(stats.alpha, 1.05);
}

INSTANTIATE_TEST_SUITE_P(Thetas, FftThetaSweep, ::testing::Values(0.1, 0.5, 0.85, 0.95, 0.99));

TEST(Fft, AlphaIncreasesMonotonicallyWithTheta) {
  const auto g = gradient_like(8192, 17);
  double previous = -1.0;
  for (double theta : {0.1, 0.5, 0.9, 0.99}) {
    FftCompressor codec({.theta = theta, .quantizer_bits = 0});
    std::vector<float> recon;
    const double alpha = measure_round_trip(codec, g, recon).alpha;
    EXPECT_GT(alpha, previous) << theta;
    previous = alpha;
  }
}

TEST(Fft, BeatsTopKReconstructionErrorAtSameTheta) {
  // The headline Fig 5 claim: at equal sparsity the FFT-domain truncation
  // preserves more of the gradient than spatial top-k. This holds on real
  // DNN gradients (whose spatial correlation the Fourier basis compacts);
  // on i.i.d. noise spatial top-k is L2-optimal by construction, so the
  // comparison must use a genuine training gradient, as the paper does
  // (it samples ResNet32 gradients).
  const std::vector<float> g = nn::sample_training_gradient(
      {.source = nn::GradientSource::kConvNet, .warm_iters = 10, .seed = 18});
  FftCompressor fft_codec({.theta = 0.85, .quantizer_bits = 0, .use_fp16_stage = false});
  TopKCompressor topk_codec(0.85);
  std::vector<float> recon;
  const double fft_err = measure_round_trip(fft_codec, g, recon).rms_error;
  const double topk_err = measure_round_trip(topk_codec, g, recon).rms_error;
  EXPECT_LT(fft_err, topk_err);
}

TEST(Fft, HigherCompressionRatioThanTopKAtSameTheta) {
  const auto g = gradient_like(100000, 19);
  FftCompressor fft_codec({.theta = 0.85, .quantizer_bits = 10});
  TopKCompressor topk_codec(0.85);
  EXPECT_GT(fft_codec.compress(g).ratio(), topk_codec.compress(g).ratio());
}

TEST(Fft, NonPowerOfTwoLengthsWork) {
  for (std::size_t n : {3u, 100u, 1001u, 4097u}) {
    FftCompressor codec({.theta = 0.5, .quantizer_bits = 10});
    const auto g = gradient_like(n, 20 + n);
    std::vector<float> recon;
    const RoundTripStats stats = measure_round_trip(codec, g, recon);
    EXPECT_TRUE(std::isfinite(stats.alpha)) << n;
  }
}

TEST(Fft, EmptyAndTinyGradients) {
  FftCompressor codec({.theta = 0.85, .quantizer_bits = 10});
  std::vector<float> empty;
  const Packet p0 = codec.compress(empty);
  EXPECT_EQ(p0.elements, 0u);
  std::vector<float> out0;
  codec.decompress(p0, out0);

  std::vector<float> one = {0.5f};
  std::vector<float> out1(1);
  codec.decompress(codec.compress(one), out1);
  EXPECT_NEAR(out1[0], 0.5f, 0.1f);
}

TEST(Fft, AllZeroGradientReconstructsToZero) {
  FftCompressor codec({.theta = 0.85, .quantizer_bits = 10});
  std::vector<float> zeros(512, 0.0f);
  std::vector<float> recon(512, 1.0f);
  codec.decompress(codec.compress(zeros), recon);
  for (float v : recon) EXPECT_EQ(v, 0.0f);
}

TEST(Fft, FrozenQuantizerPersistsAcrossCalls) {
  FftCompressor codec({.theta = 0.5, .quantizer_bits = 10});
  (void)codec.compress(gradient_like(1024, 21));
  ASSERT_TRUE(codec.quantizer().has_value());
  const float eps_before = codec.quantizer()->params().eps;
  (void)codec.compress(gradient_like(1024, 22, 0.5));  // very different scale
  EXPECT_EQ(codec.quantizer()->params().eps, eps_before);
}

TEST(Fft, PacketIsSelfContainedAcrossInstances) {
  // Decompress with a *fresh* compressor: all codec state must be in the
  // packet (receiver side of the wire).
  FftCompressor sender({.theta = 0.85, .quantizer_bits = 10});
  const auto g = gradient_like(4096, 23);
  const Packet p = sender.compress(g);
  FftCompressor receiver({.theta = 0.85, .quantizer_bits = 10});
  std::vector<float> recon(g.size());
  receiver.decompress(p, recon);
  EXPECT_LT(util::relative_error_alpha(g, recon), 1.0);
}

TEST(Fft, RejectsInvalidConfig) {
  EXPECT_THROW(FftCompressor({.theta = 1.0}), std::invalid_argument);
  EXPECT_THROW(FftCompressor({.theta = 0.5, .quantizer_bits = 2}), std::invalid_argument);
  FftCompressor codec({.theta = 0.5});
  EXPECT_THROW(codec.set_theta(-0.1), std::invalid_argument);
  std::vector<float> g(16);
  const Packet p = codec.compress(g);
  std::vector<float> wrong(15);
  EXPECT_THROW(codec.decompress(p, wrong), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Theta schedules

TEST(ThetaSchedule, FixedIsConstant) {
  FixedTheta sched(0.85);
  EXPECT_DOUBLE_EQ(sched.at(0, 0.01), 0.85);
  EXPECT_DOUBLE_EQ(sched.at(100, 1e-5), 0.85);
}

TEST(ThetaSchedule, StepDropsAtEpoch) {
  StepTheta sched(0.9, 0.0, 30);
  EXPECT_DOUBLE_EQ(sched.at(29, 0.01), 0.9);
  EXPECT_DOUBLE_EQ(sched.at(30, 0.01), 0.0);
}

TEST(ThetaSchedule, DiminishingFollowsTheoremRule) {
  // theta_t^2 = L * eta_t.
  DiminishingTheta sched(/*lipschitz=*/4.0, /*cap=*/0.95);
  EXPECT_NEAR(sched.at(0, 0.01), std::sqrt(4.0 * 0.01), 1e-12);
  EXPECT_NEAR(sched.at(5, 0.0001), std::sqrt(4.0 * 0.0001), 1e-12);
  // Cap engages for large LR.
  EXPECT_DOUBLE_EQ(sched.at(0, 10.0), 0.95);
}

}  // namespace
}  // namespace fftgrad::core
