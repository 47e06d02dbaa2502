// BSP data-parallel distributed trainer (the paper's evaluation harness).
//
// Every logical rank holds an identical replica and draws its own batch
// shard; per iteration each rank's gradient is compressed, exchanged by
// allgather (the paper uses NCCL allgather for all algorithms since sparse
// allreduce is unsupported), decompressed, and averaged; all replicas then
// apply the same averaged update. Because replicas stay bit-identical
// under that scheme, the trainer folds the rank loop onto one model at 1/p
// the memory, running cluster_train's step (fftgrad/core/replica.h) and
// ending bit-identical to it. The simulated per-iteration wall time is
//
//     max over ranks(compute + codec) + allgather(compressed blocks)
//     + (every `param_sync_every` iters) broadcast(parameters)
//
// exactly the BSP timeline of Fig 1b/Sec 4, and every term comes from a
// model, never from this host's clock. Communication is always charged by
// the NetworkModel on the packets' wire sizes, rescaled to
// `raw_gradient_bytes` (the paper's real model sizes: AlexNet 250MB,
// ResNet32 6MB) when that is set. Compute and codec time are charged only
// under a perfmodel::ComputeModel, through step_charges() as in
// cluster_train: compute at the paper's measured per-iteration GPU time,
// and the codec through its Sec 3.3 per-byte cost on the same bytes the
// exchange carries. Without one an iteration costs its exchange alone.
// Compression *accuracy* effects are genuine either way: the actual
// gradients round-trip through the codec.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "fftgrad/comm/network_model.h"
#include "fftgrad/core/compressor.h"
#include "fftgrad/core/replica.h"
#include "fftgrad/core/theta_schedule.h"
#include "fftgrad/nn/dataset.h"
#include "fftgrad/nn/network.h"
#include "fftgrad/nn/optimizer.h"
#include "fftgrad/perfmodel/cost_model.h"
#include "fftgrad/util/units.h"

namespace fftgrad::core {

/// How gradient exchange is organized (the paper's Fig 1 dichotomy).
enum class CommScheme {
  kBspAllgather,     ///< allgather of compressed blocks, update everywhere
  kParameterServer,  ///< push compressed gradients to a server, pull params
};

struct TrainerConfig {
  std::size_t ranks = 8;
  std::size_t batch_per_rank = 16;
  std::size_t epochs = 10;
  std::size_t iters_per_epoch = 25;
  std::size_t test_size = 512;
  std::size_t param_sync_every = 10;  ///< broadcast params every k iterations
  comm::NetworkModel network = comm::NetworkModel::infiniband_fdr56();
  CommScheme scheme = CommScheme::kBspAllgather;
  std::optional<perfmodel::ComputeModel> compute;
  /// Size the uncompressed gradient stands for on the wire and in the codec
  /// charge; unset, the model's own.
  std::optional<util::Bytes> raw_gradient_bytes;
  std::uint64_t seed = 42;
  bool record_alpha = true;  ///< compute Assumption-3.2 alpha each iteration
};

struct EpochRecord {
  std::size_t epoch = 0;
  double train_loss = 0.0;        ///< mean over the epoch's iterations
  double test_accuracy = 0.0;
  double theta = 0.0;             ///< sparsification ratio in effect
  double lr = 0.0;
  util::SimSeconds sim_time_s{};  ///< cumulative simulated wall time
  double mean_alpha = 0.0;        ///< mean Assumption-3.2 alpha over the epoch
  double mean_ratio = 0.0;        ///< mean achieved compression ratio
};

struct TrainResult {
  std::vector<EpochRecord> epochs;
  double final_accuracy = 0.0;
  util::SimSeconds total_sim_time_s{};
  double total_wire_bytes = 0.0;             ///< per-rank compressed bytes sent
  util::SimSeconds mean_iteration_time_s{};  ///< throughput = 1/this
};

using CompressorFactory = std::function<std::unique_ptr<GradientCompressor>(std::size_t rank)>;

/// Full training state at an epoch boundary: everything needed to resume a
/// crashed run bit-identically — the replica state, each rank's batch-stream
/// RNG, and the accounting totals (sim time / wire bytes / iteration count,
/// so the param-sync broadcast cadence stays aligned). frame_state() and
/// parse_state() (fftgrad/core/replica.h) turn it into its blob and back.
struct TrainerCheckpoint {
  ReplicaState state;  ///< state.iteration: first epoch the resumed run executes
  util::SimSeconds sim_time_s{};
  double total_wire_bytes = 0.0;
  std::uint64_t total_iters = 0;
  std::vector<std::array<std::uint64_t, 6>> rng_states;  ///< per-rank batch streams
  std::vector<EpochRecord> epochs;     ///< records of the completed epochs

  /// The release check: one RNG state per codec, and a fitting state.
  bool fits(Replica& replica, RankCodecs codecs) const {
    if (rng_states.size() != codecs.size()) {
      throw std::invalid_argument("train: checkpoint rank count does not match the config");
    }
    return state.fits(replica, codecs);
  }
  void write(std::vector<std::uint8_t>& bytes) const;
  static TrainerCheckpoint read(wire::Reader& reader);
};

/// Checkpoint behaviour for one train() call.
struct CheckpointOptions {
  /// Capture a checkpoint every k completed epochs (0 = never).
  std::size_t every_epochs = 0;
  /// Receives each captured checkpoint (write it to disk, keep the latest,
  /// ...). Called on the training thread at epoch boundaries.
  std::function<void(const TrainerCheckpoint&)> sink;
  /// Resume from this checkpoint instead of the shared initialization.
  /// train() releases it through fits() before writing anything (else
  /// std::invalid_argument), continues at `state.iteration` and reproduces
  /// the uninterrupted run's weights bit-for-bit.
  util::Untrusted<TrainerCheckpoint>* resume = nullptr;
};

class DistributedTrainer {
 public:
  /// Takes ownership of the model and dataset. The initial parameters are
  /// snapshotted: every train() call starts from the same weights, so
  /// algorithm comparisons (Fig 14 / Table 2) share initialization.
  DistributedTrainer(nn::Network model, nn::SyntheticDataset dataset, TrainerConfig config);

  /// Train with one compressor instance per rank; theta is updated from
  /// `theta_schedule` at every epoch boundary (alongside the LR schedule).
  TrainResult train(const CompressorFactory& factory, const ThetaSchedule& theta_schedule,
                    const nn::StepLrSchedule& lr_schedule);

  /// As above, with checkpoint capture and/or restore. A resumed run's
  /// TrainResult covers the checkpoint's completed epochs plus the ones it
  /// executes, and its final weights are bit-identical to the
  /// uninterrupted run's.
  TrainResult train(const CompressorFactory& factory, const ThetaSchedule& theta_schedule,
                    const nn::StepLrSchedule& lr_schedule, const CheckpointOptions& checkpoint);

  const TrainerConfig& config() const { return config_; }
  nn::Network& model() { return model_; }

 private:
  double evaluate();

  nn::Network model_;
  nn::SyntheticDataset dataset_;
  TrainerConfig config_;
  std::vector<float> initial_params_;
};

}  // namespace fftgrad::core
