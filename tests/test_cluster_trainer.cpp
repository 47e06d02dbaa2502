// cluster_train: genuinely multi-threaded BSP training over SimCluster.
// The key assertions: all replicas stay bit-identical (the BSP invariant
// the sequential DistributedTrainer relies on), the result matches the
// sequential trainer's parameters bit for bit under lossless, sparsifying,
// quantizing and error-feedback codecs (both run the one step of
// fftgrad/core/replica.h), compressed exchange still learns, and a packet
// the codec rejects after its checksum passed is left out of the average
// the way a missing one is.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/registry.h"
#include "fftgrad/core/replica.h"
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

/// A packet as the exchange hands it to Replica::average: framed, then
/// unframed with its checksum passing.
std::optional<wire::WireFrame> exchanged(const Packet& packet, std::size_t elements) {
  return std::move(wire::unframe_frame(wire::frame_packet(packet), elements))
      .release([](const wire::WireFrame&) { return true; }, "test frame");
}

std::vector<float> normal_gradient(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> gradient(n);
  for (float& g : gradient) g = static_cast<float>(rng.normal());
  return gradient;
}

/// The lossless codec's packet with its last value cut off: the checksum
/// of its frame passes, but the codec rejects it.
Packet truncated_packet(NoopCompressor& codec, std::span<const float> gradient) {
  Packet packet = codec.compress(gradient);
  packet.bytes.resize(packet.bytes.size() - sizeof(float));
  return packet;
}

TEST(ReplicaAverage, RenormalizesOverThePacketsThatDecode) {
  nn::Network model = mlp_factory()();
  Replica replica(model, 0.9f);
  const std::vector<float> gradient = normal_gradient(replica.size(), 17);
  NoopCompressor codec;
  // Both frames pass the checksum; only the codec can tell the second is short.
  const std::optional<wire::WireFrame> frames[] = {
      exchanged(codec.compress(gradient), replica.size()),
      exchanged(truncated_packet(codec, gradient), replica.size())};
  EXPECT_EQ(replica.average(codec, frames), 1u);
  const std::span<const float> averaged = replica.averaged();
  EXPECT_TRUE(std::equal(averaged.begin(), averaged.end(), gradient.begin(), gradient.end()));
}

TEST(ReplicaAverage, WithoutRejectionsIsTheOneOverNSumInRankOrder) {
  nn::Network model = mlp_factory()();
  Replica replica(model, 0.9f);
  NoopCompressor codec;
  std::vector<std::vector<float>> gradients;
  std::vector<std::optional<wire::WireFrame>> frames;
  for (std::uint64_t r = 0; r < 3; ++r) {
    gradients.push_back(normal_gradient(replica.size(), 30 + r));
    frames.push_back(exchanged(codec.compress(gradients.back()), replica.size()));
  }
  EXPECT_EQ(replica.average(codec, frames), 0u);
  const float inv_n = 1.0f / 3.0f;
  std::vector<float> expected(replica.size(), 0.0f);
  for (const std::vector<float>& g : gradients) {
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += g[i] * inv_n;
  }
  const std::span<const float> averaged = replica.averaged();
  EXPECT_TRUE(std::equal(averaged.begin(), averaged.end(), expected.begin(), expected.end()));
}

TEST(ReplicaAverage, AbsentFramesAreLeftOutOfTheMean) {
  nn::Network model = mlp_factory()();
  Replica replica(model, 0.9f);
  NoopCompressor codec;
  const std::vector<float> first = normal_gradient(replica.size(), 40);
  const std::vector<float> last = normal_gradient(replica.size(), 41);
  const std::optional<wire::WireFrame> frames[] = {
      exchanged(codec.compress(first), replica.size()), std::nullopt,
      exchanged(codec.compress(last), replica.size())};
  // A frame the exchange dropped is not a rejection.
  EXPECT_EQ(replica.average(codec, frames), 0u);
  const std::span<const float> averaged = replica.averaged();
  for (std::size_t i = 0; i < averaged.size(); ++i) {
    EXPECT_EQ(averaged[i], first[i] * 0.5f + last[i] * 0.5f) << i;
  }
}

TEST(ReplicaAverage, EveryPacketRejectedLeavesAZeroAverage) {
  nn::Network model = mlp_factory()();
  Replica replica(model, 0.9f);
  NoopCompressor codec;
  const std::vector<float> gradient = normal_gradient(replica.size(), 50);
  const std::optional<wire::WireFrame> frames[] = {
      exchanged(truncated_packet(codec, gradient), replica.size()),
      exchanged(truncated_packet(codec, gradient), replica.size())};
  EXPECT_EQ(replica.average(codec, frames), 2u);
  for (float v : replica.averaged()) EXPECT_EQ(v, 0.0f);
}

TEST(ReplicaAverage, NoFramesClearsThePreviousAverage) {
  nn::Network model = mlp_factory()();
  Replica replica(model, 0.9f);
  NoopCompressor codec;
  const std::optional<wire::WireFrame> one[] = {
      exchanged(codec.compress(normal_gradient(replica.size(), 60)), replica.size())};
  ASSERT_EQ(replica.average(codec, one), 0u);
  const std::optional<wire::WireFrame> none[] = {std::nullopt, std::nullopt};
  EXPECT_EQ(replica.average(codec, none), 0u);
  for (float v : replica.averaged()) EXPECT_EQ(v, 0.0f);
}

/// The lossless codec, except that every decode after the first iteration's
/// `ranks` decodes throws, as a codec does on a packet it cannot parse.
class RejectsAfterFirstStep : public NoopCompressor {
 public:
  explicit RejectsAfterFirstStep(std::size_t ranks) : ranks_(ranks) {}
  void decompress(const Packet& packet, std::span<float> out) override {
    if (decodes_++ >= ranks_) throw std::runtime_error("RejectsAfterFirstStep");
    NoopCompressor::decompress(packet, out);
  }

 private:
  std::size_t ranks_;
  std::size_t decodes_ = 0;
};

TEST(ClusterTrain, AStepWhereNothingDecodesAppliesNoUpdate) {
  nn::SyntheticDataset data({8}, 3, 18);
  ClusterTrainConfig cfg;
  cfg.ranks = 3;
  cfg.iterations = 1;
  cfg.seed = 10;
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  const ClusterTrainResult one_step = cluster_train(
      cluster, cfg, mlp_factory(),
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, data);
  cfg.iterations = 4;
  const ClusterTrainResult rejected = cluster_train(
      cluster, cfg, mlp_factory(),
      [&](std::size_t) { return std::make_unique<RejectsAfterFirstStep>(cfg.ranks); }, data);
  ASSERT_TRUE(rejected.replicas_identical);
  EXPECT_EQ(rejected.degraded_iterations, 3u);
  ASSERT_EQ(rejected.final_params.size(), one_step.final_params.size());
  EXPECT_EQ(0, std::memcmp(rejected.final_params.data(), one_step.final_params.data(),
                           one_step.final_params.size() * sizeof(float)));
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
