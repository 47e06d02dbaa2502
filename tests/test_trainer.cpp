#include <gtest/gtest.h>

#include <memory>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/models.h"

namespace fftgrad::core {
namespace {

TrainerConfig small_config() {
  TrainerConfig cfg;
  cfg.ranks = 4;
  cfg.batch_per_rank = 16;
  cfg.epochs = 4;
  cfg.iters_per_epoch = 20;
  cfg.test_size = 256;
  cfg.seed = 5;
  return cfg;
}

DistributedTrainer make_trainer(TrainerConfig cfg, std::uint64_t seed = 31) {
  util::Rng rng(seed);
  nn::Network net = nn::models::make_mlp(16, 32, 2, 3, rng);
  nn::SyntheticDataset data({16}, 3, 77);
  return DistributedTrainer(std::move(net), std::move(data), cfg);
}

CompressorFactory noop_factory() {
  return [](std::size_t) { return std::make_unique<NoopCompressor>(); };
}

TEST(Trainer, LosslessTrainingImprovesAccuracy) {
  DistributedTrainer trainer = make_trainer(small_config());
  nn::StepLrSchedule lr({{0, 0.05f}});
  const TrainResult result = trainer.train(noop_factory(), FixedTheta(0.0), lr);
  ASSERT_EQ(result.epochs.size(), 4u);
  EXPECT_GT(result.final_accuracy, 0.55);  // 3 classes, chance ~0.33
  EXPECT_GT(result.final_accuracy, result.epochs.front().test_accuracy - 0.05);
  EXPECT_LT(result.epochs.back().train_loss, result.epochs.front().train_loss);
}

TEST(Trainer, RepeatedRunsStartFromSameInitialization) {
  DistributedTrainer trainer = make_trainer(small_config());
  nn::StepLrSchedule lr({{0, 0.05f}});
  const TrainResult a = trainer.train(noop_factory(), FixedTheta(0.0), lr);
  const TrainResult b = trainer.train(noop_factory(), FixedTheta(0.0), lr);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss);
    EXPECT_DOUBLE_EQ(a.epochs[e].test_accuracy, b.epochs[e].test_accuracy);
  }
}

TEST(Trainer, NoopAlphaIsZeroAndRatioIsOne) {
  TrainerConfig cfg = small_config();
  cfg.epochs = 1;
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.05f}});
  const TrainResult result = trainer.train(noop_factory(), FixedTheta(0.0), lr);
  EXPECT_NEAR(result.epochs[0].mean_alpha, 0.0, 1e-9);
  EXPECT_NEAR(result.epochs[0].mean_ratio, 1.0, 1e-6);
}

TEST(Trainer, FftCompressionStillLearns) {
  DistributedTrainer trainer = make_trainer(small_config());
  nn::StepLrSchedule lr({{0, 0.05f}});
  auto factory = [](std::size_t) {
    return std::make_unique<FftCompressor>(
        FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
  };
  const TrainResult result = trainer.train(factory, FixedTheta(0.5), lr);
  EXPECT_GT(result.final_accuracy, 0.5);
  EXPECT_GT(result.epochs.back().mean_ratio, 2.0);
  EXPECT_GT(result.epochs.back().mean_alpha, 0.0);
  EXPECT_LT(result.epochs.back().mean_alpha, 1.0);
}

TEST(Trainer, CompressedRunIsFasterOnSimClockThanLossless) {
  TrainerConfig cfg = small_config();
  cfg.epochs = 1;
  cfg.paper_scale =
      PaperScale{.raw_gradient_bytes = 250e6, .compute_seconds = util::SimSeconds(0.05)};
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.05f}});
  const TrainResult lossless = trainer.train(noop_factory(), FixedTheta(0.0), lr);
  auto fft_factory = [](std::size_t) {
    return std::make_unique<FftCompressor>(
        FftCompressorOptions{.theta = 0.85, .quantizer_bits = 10});
  };
  const TrainResult compressed = trainer.train(fft_factory, FixedTheta(0.85), lr);
  EXPECT_LT(compressed.total_sim_time_s, lossless.total_sim_time_s);
}

TEST(Trainer, ThetaScheduleIsAppliedPerEpoch) {
  TrainerConfig cfg = small_config();
  cfg.epochs = 4;
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.05f}});
  auto factory = [](std::size_t) {
    return std::make_unique<TopKCompressor>(0.9);
  };
  const TrainResult result = trainer.train(factory, StepTheta(0.9, 0.1, 2), lr);
  EXPECT_DOUBLE_EQ(result.epochs[0].theta, 0.9);
  EXPECT_DOUBLE_EQ(result.epochs[1].theta, 0.9);
  EXPECT_DOUBLE_EQ(result.epochs[2].theta, 0.1);
  EXPECT_DOUBLE_EQ(result.epochs[3].theta, 0.1);
  // Lower theta -> lower compression ratio.
  EXPECT_GT(result.epochs[0].mean_ratio, result.epochs[3].mean_ratio);
}

TEST(Trainer, SimTimeGrowsWithRankCountAtFixedWork) {
  nn::StepLrSchedule lr({{0, 0.05f}});
  TrainerConfig cfg = small_config();
  cfg.epochs = 1;
  cfg.iters_per_epoch = 5;
  cfg.paper_scale =
      PaperScale{.raw_gradient_bytes = 250e6, .compute_seconds = util::SimSeconds(0.05)};
  cfg.ranks = 2;
  const TrainResult small = make_trainer(cfg).train(noop_factory(), FixedTheta(0.0), lr);
  cfg.ranks = 8;
  const TrainResult large = make_trainer(cfg).train(noop_factory(), FixedTheta(0.0), lr);
  EXPECT_GT(large.mean_iteration_time_s, small.mean_iteration_time_s);
}

TEST(Trainer, RecordsCumulativeWireBytes) {
  TrainerConfig cfg = small_config();
  cfg.epochs = 1;
  cfg.iters_per_epoch = 3;
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.05f}});
  const TrainResult result = trainer.train(noop_factory(), FixedTheta(0.0), lr);
  const double per_rank = static_cast<double>(trainer.model().param_count()) * 4.0;
  EXPECT_NEAR(result.total_wire_bytes, per_rank * cfg.ranks * 3.0, per_rank * 0.01);
}

TEST(Trainer, RejectsZeroRanks) {
  TrainerConfig cfg = small_config();
  cfg.ranks = 0;
  util::Rng rng(1);
  nn::Network net = nn::models::make_mlp(4, 8, 1, 2, rng);
  nn::SyntheticDataset data({4}, 2, 1);
  EXPECT_THROW(DistributedTrainer(std::move(net), std::move(data), cfg), std::invalid_argument);
}

}  // namespace
}  // namespace fftgrad::core
