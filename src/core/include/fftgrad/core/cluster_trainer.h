// Genuinely multi-threaded BSP training over the SimCluster: one OS thread
// per logical rank, each with its own model replica, exchanging compressed
// gradient packets through the cluster's allgather and decompressing all
// peers' packets locally — the paper's exact deployment (every GPU keeps a
// copy of the global gradient after allgather).
//
// Both this and the sequential DistributedTrainer run the step of
// fftgrad/core/replica.h, charge simulated compute through its
// step_charges(), and end bit-identical (test_cluster_trainer asserts
// it). That one folds the rank loop onto a single replica for the
// figure benches; this one keeps p real replicas and real message passing,
// carries faults, recovery and rejoin, and is the template for a real
// MPI/NCCL integration. When the ranks fill ThreadPool::global(), each rank
// thread runs its parallel primitives' chunks inline, on its own core.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/core/compressor.h"
#include "fftgrad/core/recovery.h"
#include "fftgrad/nn/dataset.h"
#include "fftgrad/nn/network.h"
#include "fftgrad/nn/optimizer.h"
#include "fftgrad/perfmodel/cost_model.h"

namespace fftgrad::core {

struct ClusterTrainConfig {
  std::size_t ranks = 4;
  std::size_t batch_per_rank = 16;
  std::size_t iterations = 50;
  float learning_rate = 0.05f;
  std::uint64_t seed = 42;  ///< per-rank batch streams derive from this
  /// When set, each phase of a rank's step charges its step_charges() to
  /// the rank's simulated clock and emits the matching "cp" leaf span;
  /// without it the clock carries the collectives alone.
  std::optional<perfmodel::ComputeModel> compute;
  /// Monitor-driven automatic remediation (fftgrad/core/recovery.h).
  /// Disabled by default, in which case the collective op stream is
  /// bit-identical to a build without the recovery layer; when enabled,
  /// each iteration adds one small flag allreduce so every rank applies
  /// the identical remedy at the identical iteration.
  RecoveryPolicy recovery{};
};

struct ClusterTrainResult {
  std::vector<float> final_params;  ///< lowest surviving rank's parameters
  bool replicas_identical = false;  ///< all surviving ranks ended bit-identical
  std::vector<util::SimSeconds> rank_sim_times;  ///< simulated clock per rank
  double mean_loss_last_iteration = 0.0;

  // Fault-tolerance bookkeeping (all zero on a fault-free cluster).
  std::size_t crashed_ranks = 0;        ///< ranks lost to crashes and not recovered
  std::size_t rejoined_ranks = 0;       ///< ranks that crashed and were re-admitted
  std::size_t remediations = 0;         ///< recovery-controller actions applied
  std::size_t skipped_contributions = 0;  ///< peer packets missing or undecodable
  std::size_t degraded_iterations = 0;  ///< iterations averaged over < all ranks
  /// Mean training loss per iteration, averaged over the ranks that were
  /// still alive at that iteration (the chaos example's accuracy trace).
  std::vector<double> mean_loss_trace;
};

/// Run BSP training with `model_factory(rank_seed)` building each rank's
/// replica (must be deterministic so replicas start identical) and
/// `compressor_factory(rank)` supplying each rank's codec. Returns the
/// lowest surviving rank's final parameters plus a cross-replica
/// consistency check.
///
/// Degradation semantics under the cluster's FaultPlan: a peer packet that
/// arrives missing (dropped after retries, straggler-timeout exclusion, or
/// rank crash) or fails its frame checksum / decode is skipped for the
/// step and the gradient average is renormalized over the contributions
/// that did decode; every rank skips the identical set, so surviving
/// replicas stay bit-identical. Each rank's own error-feedback residual
/// (if its codec carries one) is untouched by a skipped peer, and when the
/// excluded packet is the rank's *own*, its delivered part is re-credited
/// into the residual (recredit_undelivered) so excluded iterations delay
/// information instead of destroying it. An iteration where nothing
/// decodes applies no update.
///
/// Elastic recovery: a CrashSpec with a finite rejoin_at_op turns the
/// crash into a bounded outage — at each iteration top the survivors
/// admit any rank whose rejoin op has been reached (SimCluster's
/// membership handshake) and the handshake's donor (its lowest live rank)
/// ships the rejoiner a framed RejoinBlob (fftgrad/core/replica.h) through
/// peer_transfer, charged at real NetworkModel cost. The rejoiner checks
/// its shapes, replays its batch-RNG stream to the group's iteration and
/// re-enters the BSP loop; from then on it is bit-identical to the other
/// replicas. When config.recovery is enabled,
/// the RecoveryController additionally maps monitor conditions to
/// automatic remedies (rollback / lossless-codec fallback / theta
/// relaxation), each recorded as a ledger `remediation` row.
ClusterTrainResult cluster_train(
    comm::SimCluster& cluster, const ClusterTrainConfig& config,
    const std::function<nn::Network()>& model_factory,
    const std::function<std::unique_ptr<GradientCompressor>(std::size_t)>& compressor_factory,
    const nn::SyntheticDataset& dataset);

}  // namespace fftgrad::core
