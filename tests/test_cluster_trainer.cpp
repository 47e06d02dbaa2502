// cluster_train: genuinely multi-threaded BSP training over SimCluster.
// The key assertions: all replicas stay bit-identical (the BSP invariant
// the sequential DistributedTrainer relies on), the result matches the
// sequential trainer's parameters bit for bit under lossless, sparsifying,
// quantizing and error-feedback codecs (both run the one step of
// fftgrad/core/replica.h), and compressed exchange still learns.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/registry.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/nn/models.h"

namespace fftgrad::core {
namespace {

std::function<nn::Network()> mlp_factory() {
  return [] {
    util::Rng rng(999);
    return nn::models::make_mlp(8, 16, 2, 3, rng);
  };
}

TEST(ClusterTrain, ReplicasStayBitIdenticalLossless) {
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  ClusterTrainConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = 10;
  cfg.seed = 5;
  nn::SyntheticDataset data({8}, 3, 11);
  const ClusterTrainResult result = cluster_train(
      cluster, cfg, mlp_factory(),
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, data);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_EQ(result.rank_sim_times.size(), 4u);
  for (util::SimSeconds t : result.rank_sim_times) EXPECT_GT(t, util::SimSeconds(0.0));
}

TEST(ClusterTrain, ReplicasStayBitIdenticalUnderFftCompression) {
  // Compression is deterministic given the packet, and every rank
  // decompresses the same packets in the same order -> replicas must agree
  // exactly even though the exchange is lossy.
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  ClusterTrainConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = 8;
  cfg.seed = 6;
  nn::SyntheticDataset data({8}, 3, 12);
  const ClusterTrainResult result = cluster_train(
      cluster, cfg, mlp_factory(),
      [](std::size_t) {
        return std::make_unique<FftCompressor>(
            FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
      },
      data);
  EXPECT_TRUE(result.replicas_identical);
}

TEST(ClusterTrain, MatchesSequentialTrainerBitForBit) {
  const std::uint64_t kSeed = 7;
  nn::SyntheticDataset data({8}, 3, 13);
  for (const char* spec : {"none", "fft", "topk", "qsgd", "ef[topk]"}) {
    const CompressorFactory factory = [spec](std::size_t) { return make_compressor(spec); };

    comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
    ClusterTrainConfig ccfg;
    ccfg.ranks = 3;
    ccfg.batch_per_rank = 16;
    ccfg.iterations = 6;
    ccfg.learning_rate = 0.05f;
    ccfg.seed = kSeed;
    const ClusterTrainResult threaded = cluster_train(cluster, ccfg, mlp_factory(), factory, data);
    ASSERT_TRUE(threaded.replicas_identical) << spec;

    TrainerConfig scfg;
    scfg.ranks = 3;
    scfg.batch_per_rank = 16;
    scfg.epochs = 1;
    scfg.iters_per_epoch = 6;
    scfg.test_size = 16;
    scfg.seed = kSeed;
    util::Rng rng(999);
    DistributedTrainer sequential(nn::models::make_mlp(8, 16, 2, 3, rng), data, scfg);
    nn::StepLrSchedule lr({{0, 0.05f}});
    // cluster_train never sets theta, so the fold keeps each codec's own.
    sequential.train(factory, FixedTheta(make_compressor(spec)->theta()), lr);
    std::vector<float> sequential_params(sequential.model().param_count());
    sequential.model().copy_params(sequential_params);

    ASSERT_EQ(threaded.final_params.size(), sequential_params.size()) << spec;
    EXPECT_EQ(0, std::memcmp(threaded.final_params.data(), sequential_params.data(),
                             sequential_params.size() * sizeof(float)))
        << spec;
  }
}

TEST(ClusterTrain, CompressedTrainingReducesLoss) {
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  nn::SyntheticDataset data({8}, 2, 14);
  ClusterTrainConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = 2;
  cfg.seed = 8;
  const ClusterTrainResult before = cluster_train(
      cluster, cfg, mlp_factory(),
      [](std::size_t) {
        return std::make_unique<FftCompressor>(
            FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
      },
      data);
  cfg.iterations = 60;
  const ClusterTrainResult after = cluster_train(
      cluster, cfg, mlp_factory(),
      [](std::size_t) {
        return std::make_unique<FftCompressor>(
            FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
      },
      data);
  EXPECT_LT(after.mean_loss_last_iteration, before.mean_loss_last_iteration);
}

TEST(ClusterTrain, SimClockChargesCompressedVolume) {
  // The per-rank simulated time under compression must be far below the
  // lossless exchange time for the same schedule. Needs a gradient large
  // enough that the alpha-beta model is bandwidth-dominated (a tiny MLP's
  // 1KB gradient would be latency-bound and compression-insensitive).
  auto big_mlp = [] {
    util::Rng rng(998);
    return nn::models::make_mlp(64, 256, 3, 4, rng);  // ~85k params, 340KB
  };
  nn::SyntheticDataset data({64}, 4, 15);
  ClusterTrainConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = 3;
  cfg.seed = 9;
  comm::SimCluster slow(comm::NetworkModel::ethernet_1g());
  const ClusterTrainResult lossless = cluster_train(
      slow, cfg, big_mlp,
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, data);
  const ClusterTrainResult compressed = cluster_train(
      slow, cfg, big_mlp,
      [](std::size_t) {
        return std::make_unique<FftCompressor>(
            FftCompressorOptions{.theta = 0.9, .quantizer_bits = 10});
      },
      data);
  EXPECT_LT(compressed.rank_sim_times[0], lossless.rank_sim_times[0] * 0.5);
}

TEST(ClusterTrain, RejectsZeroRanks) {
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  ClusterTrainConfig cfg;
  cfg.ranks = 0;
  nn::SyntheticDataset data({8}, 2, 16);
  EXPECT_THROW(cluster_train(cluster, cfg, mlp_factory(),
                             [](std::size_t) { return std::make_unique<NoopCompressor>(); },
                             data),
               std::invalid_argument);
}

}  // namespace
}  // namespace fftgrad::core
