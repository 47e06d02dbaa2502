// Exactness tests for the trainer's simulated-time accounting: the
// charges must equal the closed-form alpha-beta (+ Sec 3.3 under a compute
// model) expressions, iteration for iteration.
#include <gtest/gtest.h>

#include <memory>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/perfmodel/cost_model.h"

namespace fftgrad::core {
namespace {

DistributedTrainer make_trainer(TrainerConfig cfg) {
  util::Rng rng(17);
  return DistributedTrainer(nn::models::make_mlp(8, 8, 2, 2, rng),
                            nn::SyntheticDataset({8}, 2, 18), cfg);
}

TrainerConfig base_config() {
  TrainerConfig cfg;
  cfg.ranks = 4;
  cfg.batch_per_rank = 8;
  cfg.epochs = 1;
  cfg.iters_per_epoch = 2;
  cfg.test_size = 16;
  cfg.param_sync_every = 10;  // never fires within 2 iterations
  cfg.record_alpha = false;
  cfg.compute = perfmodel::ComputeModel{.compute_s = util::SimSeconds(0.05)};
  cfg.raw_gradient_bytes = util::Bytes(8e6);
  return cfg;
}

TEST(Accounting, LosslessBspMatchesClosedForm) {
  TrainerConfig cfg = base_config();
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, FixedTheta(0.0), lr);

  // Noop: zero codec cost, every rank's block is the full 8MB gradient.
  const comm::NetworkModel& net = cfg.network;
  const double per_iter = cfg.compute->compute_s.to_double() +
                          3.0 * net.p2p_time(util::Bytes(8e6)).to_double();  // (p-1) ring steps
  EXPECT_NEAR(result.total_sim_time_s.to_double(), 2.0 * per_iter, 1e-9);
  EXPECT_NEAR(result.mean_iteration_time_s.to_double(), per_iter, 1e-9);
}

TEST(Accounting, FftCodecChargedThroughEquationOne) {
  TrainerConfig cfg = base_config();
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) {
        return std::make_unique<FftCompressor>(
            FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
      },
      FixedTheta(0.5), lr);

  // Codec: compression + decompression at Eq. 1's per-byte cost on the
  // paper-scale message. Communication: the measured wire ratio rescales
  // the per-rank block.
  const double spb = perfmodel::seconds_per_byte(cfg.compute->throughputs);
  const double codec = 2.0 * 8e6 * spb;
  const double ratio = result.epochs[0].mean_ratio;
  const double block = 8e6 / ratio;
  const double per_iter = cfg.compute->compute_s.to_double() + codec +
                          3.0 * cfg.network.p2p_time(util::Bytes(block)).to_double();
  EXPECT_NEAR(result.mean_iteration_time_s.to_double(), per_iter, per_iter * 0.02);
}

TEST(Accounting, ParameterBroadcastFiresOnSchedule) {
  TrainerConfig cfg = base_config();
  cfg.iters_per_epoch = 10;
  cfg.param_sync_every = 5;  // fires at iterations 5 and 10
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, FixedTheta(0.0), lr);

  const double per_iter = cfg.compute->compute_s.to_double() +
                          3.0 * cfg.network.p2p_time(util::Bytes(8e6)).to_double();
  const double bcast = cfg.network.broadcast_time(util::Bytes(8e6), cfg.ranks).to_double();
  EXPECT_NEAR(result.total_sim_time_s.to_double(), 10.0 * per_iter + 2.0 * bcast, 1e-9);
}

TEST(Accounting, ParameterServerChargesPushAndPull) {
  TrainerConfig cfg = base_config();
  cfg.scheme = CommScheme::kParameterServer;
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, FixedTheta(0.0), lr);

  std::vector<util::Bytes> blocks(cfg.ranks, util::Bytes(8e6));
  const double per_iter = cfg.compute->compute_s.to_double() +
                          cfg.network.ps_push_time(blocks).to_double() +
                          cfg.network.ps_pull_time(util::Bytes(8e6), cfg.ranks).to_double();
  EXPECT_NEAR(result.total_sim_time_s.to_double(), 2.0 * per_iter, 1e-9);
}

TEST(Accounting, WithoutAComputeModelOnlyTheExchangeIsCharged) {
  TrainerConfig cfg = base_config();
  cfg.compute.reset();
  cfg.raw_gradient_bytes.reset();
  cfg.param_sync_every = 2;  // fires at iteration 2
  DistributedTrainer trainer = make_trainer(cfg);
  const double raw = static_cast<double>(trainer.model().param_count() * sizeof(float));
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, FixedTheta(0.0), lr);

  // No compute or codec charge: two ring allgathers of the raw gradient
  // plus one parameter broadcast, however long this host took.
  const double exchange = 3.0 * cfg.network.p2p_time(util::Bytes(raw)).to_double();
  const double bcast = cfg.network.broadcast_time(util::Bytes(raw), cfg.ranks).to_double();
  EXPECT_DOUBLE_EQ(result.total_sim_time_s.to_double(), 2.0 * exchange + bcast);
  EXPECT_DOUBLE_EQ(result.mean_iteration_time_s.to_double(), (2.0 * exchange + bcast) / 2.0);
}

TEST(Accounting, WireScaleKeepsCompressionRatioInvariant) {
  // The paper-scale rescale multiplies raw and compressed bytes alike, so
  // the reported ratio equals the genuine codec ratio regardless of scale.
  nn::StepLrSchedule lr({{0, 0.01f}});
  auto run = [&](double bytes) {
    TrainerConfig cfg = base_config();
    cfg.raw_gradient_bytes = util::Bytes(bytes);
    DistributedTrainer trainer = make_trainer(cfg);
    return trainer
        .train(
            [](std::size_t) {
              return std::make_unique<FftCompressor>(
                  FftCompressorOptions{.theta = 0.85, .quantizer_bits = 10});
            },
            FixedTheta(0.85), lr)
        .epochs[0]
        .mean_ratio;
  };
  EXPECT_NEAR(run(8e6), run(250e6), 1e-9);
}

}  // namespace
}  // namespace fftgrad::core
