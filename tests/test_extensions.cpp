// Tests for the extension components built beyond the paper's core:
// adaptive mask coding, error-feedback compression, and the
// parameter-server communication scheme.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/compression_stats.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/sparse/mask_coding.h"
#include "fftgrad/util/rng.h"

namespace fftgrad {
namespace {

// ---------------------------------------------------------------------------
// Mask coding

sparse::Bitmap random_mask(std::size_t n, double density, std::uint64_t seed) {
  util::Rng rng(seed);
  sparse::Bitmap mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(density)) mask.set(i);
  }
  return mask;
}

TEST(MaskCoding, IndexBitsMatchesCeilLog2) {
  EXPECT_EQ(sparse::index_bits(1), 1);
  EXPECT_EQ(sparse::index_bits(2), 1);
  EXPECT_EQ(sparse::index_bits(3), 2);
  EXPECT_EQ(sparse::index_bits(1024), 10);
  EXPECT_EQ(sparse::index_bits(1025), 11);
}

TEST(MaskCoding, ChoosesBitmapForDenseMasks) {
  EXPECT_EQ(sparse::choose_mask_encoding(100000, 20000), sparse::MaskEncoding::kBitmap);
}

TEST(MaskCoding, ChoosesIndexListForVerySparseMasks) {
  EXPECT_EQ(sparse::choose_mask_encoding(100000, 100), sparse::MaskEncoding::kIndexList);
}

TEST(MaskCoding, CrossoverNearOneOverLogN) {
  const std::size_t n = 1 << 20;  // index_bits = 20
  // Just below n/20 set bits the index list wins; well above it loses.
  EXPECT_EQ(sparse::choose_mask_encoding(n, n / 25), sparse::MaskEncoding::kIndexList);
  EXPECT_EQ(sparse::choose_mask_encoding(n, n / 10), sparse::MaskEncoding::kBitmap);
}

class MaskCodingRoundTrip : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(MaskCodingRoundTrip, EncodeDecodeIsIdentity) {
  const auto [n, density] = GetParam();
  const sparse::Bitmap mask = random_mask(n, density, n + 17);
  const auto bytes = sparse::encode_mask(mask);
  const sparse::Bitmap decoded =
      sparse::decode_mask(bytes, n).release(
          [&](const sparse::Bitmap& m) { return m.count() == mask.count(); },
          "round-trip mask");
  EXPECT_EQ(decoded, mask);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MaskCodingRoundTrip,
                         ::testing::Values(std::pair<std::size_t, double>{1, 1.0},
                                           std::pair<std::size_t, double>{64, 0.5},
                                           std::pair<std::size_t, double>{65, 0.01},
                                           std::pair<std::size_t, double>{10000, 0.001},
                                           std::pair<std::size_t, double>{10000, 0.3},
                                           std::pair<std::size_t, double>{100003, 0.005}));

TEST(MaskCoding, EmptyAndFullMasks) {
  sparse::Bitmap empty(1000);
  EXPECT_EQ(sparse::decode_mask(sparse::encode_mask(empty), 1000)
                .release([](const sparse::Bitmap& m) { return m.count() == 0; },
                         "empty mask"),
            empty);
  sparse::Bitmap full(1000);
  for (std::size_t i = 0; i < 1000; ++i) full.set(i);
  EXPECT_EQ(sparse::decode_mask(sparse::encode_mask(full), 1000)
                .release([](const sparse::Bitmap& m) { return m.count() == 1000; },
                         "full mask"),
            full);
}

TEST(MaskCoding, RejectsCorruptPayloads) {
  EXPECT_THROW((void)sparse::decode_mask({}, 10), std::invalid_argument);
  std::vector<std::uint8_t> bad_tag = {9, 0, 0};
  EXPECT_THROW((void)sparse::decode_mask(bad_tag, 10), std::invalid_argument);
  std::vector<std::uint8_t> short_bitmap = {0, 1};
  EXPECT_THROW((void)sparse::decode_mask(short_bitmap, 1000), std::invalid_argument);
}

TEST(MaskCoding, IndexEncodingBreaksTheFig6Ceiling) {
  // At theta = 0.999 the bitmap alone caps the ratio near 30x for a 100MB
  // gradient; the index list keeps shrinking with the survivor count.
  const std::size_t n = 25'000'000;
  const std::size_t kept = n / 1000;
  EXPECT_LT(sparse::index_encoding_bytes(n, kept) * 10, sparse::bitmap_encoding_bytes(n));
}

// ---------------------------------------------------------------------------
// Error feedback

std::vector<float> gradient_like(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> g(n);
  for (float& v : g) v = static_cast<float>(rng.normal(0.0, 0.02));
  return g;
}

TEST(ErrorFeedback, FirstPacketMatchesInnerCodec) {
  core::TopKCompressor plain(0.9);
  core::ErrorFeedbackCompressor wrapped(std::make_unique<core::TopKCompressor>(0.9));
  const auto g = gradient_like(1000, 1);
  std::vector<float> a(g.size()), b(g.size());
  plain.decompress(plain.compress(g), a);
  wrapped.decompress(wrapped.compress(g), b);
  EXPECT_EQ(a, b);  // zero initial residual
}

TEST(ErrorFeedback, ResidualEqualsWhatWasDropped) {
  core::ErrorFeedbackCompressor codec(std::make_unique<core::TopKCompressor>(0.9));
  const auto g = gradient_like(1000, 2);
  std::vector<float> delivered(g.size());
  codec.decompress(codec.compress(g), delivered);
  auto residual = codec.residual();
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(residual[i], g[i] - delivered[i], 1e-6f) << i;
  }
}

TEST(ErrorFeedback, RepeatedGradientIsEventuallyFullyDelivered) {
  // Feeding the same gradient repeatedly, the accumulated deliveries must
  // converge to the true gradient (nothing is permanently lost).
  core::ErrorFeedbackCompressor codec(std::make_unique<core::TopKCompressor>(0.9));
  const auto g = gradient_like(500, 3);
  std::vector<float> total(g.size(), 0.0f);
  std::vector<float> delivered(g.size());
  const int steps = 120;
  for (int t = 0; t < steps; ++t) {
    codec.decompress(codec.compress(g), delivered);
    for (std::size_t i = 0; i < g.size(); ++i) total[i] += delivered[i];
  }
  // Average delivered gradient approximates g; the gap is the final
  // undelivered residual spread over `steps`, so it shrinks as 1/steps.
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(total[i] / steps, g[i], 2e-3f) << i;
  }
}

TEST(ErrorFeedback, ReducesLongRunErrorVersusPlainTopK) {
  const auto g = gradient_like(2000, 4);
  auto long_run_error = [&](core::GradientCompressor& codec) {
    std::vector<float> sum(g.size(), 0.0f), delivered(g.size());
    const int steps = 30;
    for (int t = 0; t < steps; ++t) {
      codec.decompress(codec.compress(g), delivered);
      for (std::size_t i = 0; i < g.size(); ++i) sum[i] += delivered[i] / steps;
    }
    double err = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      err += (sum[i] - g[i]) * (sum[i] - g[i]);
    }
    return err;
  };
  core::TopKCompressor plain(0.95);
  core::ErrorFeedbackCompressor wrapped(std::make_unique<core::TopKCompressor>(0.95));
  EXPECT_LT(long_run_error(wrapped), long_run_error(plain) * 0.25);
}

TEST(ErrorFeedback, WorksAroundTheFftPipeline) {
  core::ErrorFeedbackCompressor codec(std::make_unique<core::FftCompressor>(
      core::FftCompressorOptions{.theta = 0.9, .quantizer_bits = 10}));
  const auto g = gradient_like(2048, 5);
  std::vector<float> recon;
  const core::RoundTripStats stats = core::measure_round_trip(codec, g, recon);
  EXPECT_LT(stats.alpha, 1.0);
  EXPECT_GT(stats.ratio, 5.0);
}

TEST(ErrorFeedback, SetThetaForwardsToInner) {
  core::ErrorFeedbackCompressor codec(std::make_unique<core::TopKCompressor>(0.5));
  codec.set_theta(0.9);
  EXPECT_DOUBLE_EQ(codec.theta(), 0.9);
  EXPECT_DOUBLE_EQ(codec.inner().theta(), 0.9);
}

TEST(ErrorFeedback, ResetClearsResidual) {
  core::ErrorFeedbackCompressor codec(std::make_unique<core::TopKCompressor>(0.9));
  const auto g = gradient_like(100, 6);
  (void)codec.compress(g);
  codec.reset();
  for (float r : codec.residual()) EXPECT_EQ(r, 0.0f);
}

TEST(ErrorFeedback, RejectsNullInner) {
  EXPECT_THROW(core::ErrorFeedbackCompressor(nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Parameter-server scheme

TEST(ParameterServer, PushPullCostFormulas) {
  comm::NetworkModel net{"test", util::SimSeconds(1e-4), util::BytesPerSecond(1e6)};
  std::vector<util::Bytes> blocks = {util::Bytes(1000.0), util::Bytes(2000.0),
                                     util::Bytes(3000.0)};
  EXPECT_DOUBLE_EQ(net.ps_push_time(blocks).to_double(), 3e-4 + 6000.0 / 1e6);
  EXPECT_DOUBLE_EQ(net.ps_pull_time(util::Bytes(5000.0), 4).to_double(),
                   4.0 * (1e-4 + 5000.0 / 1e6));
}

TEST(ParameterServer, TrainerProducesSameAccuracyAsBsp) {
  // The scheme only changes the simulated comm timeline, not the math.
  util::Rng rng(7);
  core::TrainerConfig cfg;
  cfg.ranks = 4;
  cfg.batch_per_rank = 16;
  cfg.epochs = 2;
  cfg.iters_per_epoch = 10;
  cfg.test_size = 128;
  cfg.seed = 9;
  nn::SyntheticDataset data({8}, 2, 11);
  auto factory = [](std::size_t) { return std::make_unique<core::NoopCompressor>(); };
  nn::StepLrSchedule lr({{0, 0.05f}});

  cfg.scheme = core::CommScheme::kBspAllgather;
  util::Rng rng_a(7);
  core::DistributedTrainer bsp(nn::models::make_mlp(8, 16, 2, 2, rng_a), data, cfg);
  const core::TrainResult bsp_result = bsp.train(factory, core::FixedTheta(0.0), lr);

  cfg.scheme = core::CommScheme::kParameterServer;
  util::Rng rng_b(7);
  core::DistributedTrainer ps(nn::models::make_mlp(8, 16, 2, 2, rng_b), data, cfg);
  const core::TrainResult ps_result = ps.train(factory, core::FixedTheta(0.0), lr);

  EXPECT_DOUBLE_EQ(ps_result.final_accuracy, bsp_result.final_accuracy);
  EXPECT_NE(ps_result.total_sim_time_s, bsp_result.total_sim_time_s);
}

TEST(ParameterServer, ScalesWorseThanBspAtHighRankCounts) {
  // The server link serializes p gradient pushes + p parameter pulls, so PS
  // iteration time grows ~2p while ring allgather grows ~(p-1) in block
  // units — at paper-scale sizes PS falls behind as p grows.
  auto iteration_time = [&](core::CommScheme scheme, std::size_t ranks) {
    util::Rng rng(8);
    core::TrainerConfig cfg;
    cfg.ranks = ranks;
    cfg.batch_per_rank = 4;
    cfg.epochs = 1;
    cfg.iters_per_epoch = 2;
    cfg.test_size = 32;
    cfg.scheme = scheme;
    cfg.record_alpha = false;
    cfg.paper_scale = core::PaperScale{.raw_gradient_bytes = 250e6, .compute_seconds = 0.1};
    core::DistributedTrainer trainer(nn::models::make_mlp(8, 16, 2, 2, rng),
                                     nn::SyntheticDataset({8}, 2, 12), cfg);
    nn::StepLrSchedule lr({{0, 0.05f}});
    auto factory = [](std::size_t) { return std::make_unique<core::NoopCompressor>(); };
    return trainer.train(factory, core::FixedTheta(0.0), lr).mean_iteration_time_s;
  };
  const double ps16 = iteration_time(core::CommScheme::kParameterServer, 16);
  const double bsp16 = iteration_time(core::CommScheme::kBspAllgather, 16);
  EXPECT_GT(ps16, bsp16);
}

}  // namespace
}  // namespace fftgrad
