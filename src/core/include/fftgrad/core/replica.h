// The BSP step (Sec 3, Fig 1b) and the replica state that DistributedTrainer
// (the fold: one model, the ranks in turn) and cluster_train (a thread and a
// model per rank) share. Replica runs a rank's batch, forward, backward and
// compress, then decodes every exchanged packet in rank order with the
// receiver's codec, averages with 1/decoded and applies, each phase under
// its "trainer" span and wall timer. ReplicaState is what a replica carries
// between iterations: the rollback snapshot, and the head of the rejoin blob
// and of the trainer checkpoint, which share one CRC framing (frame_state)
// and one parse (parse_state) released through fits(). Internal to
// fftgrad_core and its tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fftgrad/comm/network_model.h"
#include "fftgrad/core/compressor.h"
#include "fftgrad/nn/dataset.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/nn/network.h"
#include "fftgrad/nn/optimizer.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/trace.h"
#include "fftgrad/util/timer.h"

namespace fftgrad::core {

/// A logical rank's private batch stream.
inline util::Rng batch_stream(std::uint64_t seed, std::size_t rank) {
  return util::Rng(seed * 7919 + rank);
}

/// SGD momentum of both trainers' optimizers.
inline constexpr float kMomentum = 0.9f;

/// Wall time of the phases of the current step.
struct PhaseTimes {
  util::WallSeconds forward{};
  util::WallSeconds backward{};
  util::WallSeconds compress{};
  util::WallSeconds decompress{};
};

/// One replica's side of the step: a model (which must outlive it), its
/// SGD optimizer and the flat gradient buffers.
class Replica {
 public:
  Replica(nn::Network& model, float momentum)
      : model_(&model),
        optimizer_(momentum),
        gradient_(model.param_count()),
        reconstructed_(gradient_.size()),
        averaged_(gradient_.size()) {}

  nn::Network& model() { return *model_; }
  nn::SgdOptimizer& optimizer() { return optimizer_; }
  std::size_t size() const { return gradient_.size(); }
  std::span<const float> gradient() const { return gradient_; }  ///< of the last backward()
  std::span<const float> averaged() const { return averaged_; }  ///< of the last average()
  const PhaseTimes& times() const { return times_; }

  /// Run `batch` (drawn from the rank's batch_stream()) forward; returns
  /// the loss.
  double forward(const nn::Batch& batch) {
    model_->zero_grad();
    telemetry::TraceSpan span("forward", "trainer");
    util::WallTimer timer;
    const double loss = criterion_.forward(model_->forward(batch.inputs), batch.labels);
    times_.forward = timer.elapsed();
    return loss;
  }
  /// Backward; leaves the flat gradient in gradient().
  void backward() {
    telemetry::TraceSpan span("backward", "trainer");
    util::WallTimer timer;
    model_->backward(criterion_.backward());
    model_->copy_gradients(gradient_);
    times_.backward = timer.elapsed();
  }

  /// `codec.compress(gradient())`; `finish(packet)` runs inside the span and
  /// its timer (cluster_train frames the packet there).
  template <typename Finish>
  Packet compress(GradientCompressor& codec, Finish&& finish) {
    telemetry::TraceSpan span("compress", "trainer");
    util::WallTimer timer;
    Packet packet = codec.compress(gradient_);
    finish(static_cast<const Packet&>(packet));
    times_.compress = timer.elapsed();
    return packet;
  }

  /// Decode the exchanged `frames` in rank order with `codec` into
  /// averaged(), the mean over the present ones (absent: dropped by the
  /// exchange) that the codec decodes: each is scaled by 1/n for the n
  /// present, and when the codec rejects some the sum is renormalized by
  /// n/decoded. Frame `own` carries this replica's gradient(): with a
  /// `round_trip` row, its reconstruction fills the row's round-trip block.
  /// Returns the rejected count; averaged() is zero when nothing decoded.
  std::size_t average(GradientCompressor& codec,
                      std::span<const std::optional<wire::WireFrame>> frames,
                      telemetry::LedgerIteration* round_trip = nullptr, std::size_t own = 0,
                      std::span<const nn::ParamSegment> layout = {});
  /// Apply averaged() at learning rate `lr`.
  void apply(float lr) {
    telemetry::TraceSpan span("apply", "trainer");
    model_->set_gradients(averaged_);
    optimizer_.step(*model_, lr);
  }

 private:
  nn::Network* model_;
  nn::SgdOptimizer optimizer_;
  nn::SoftmaxCrossEntropy criterion_;
  std::vector<float> gradient_;
  std::vector<float> reconstructed_;
  std::vector<float> averaged_;
  PhaseTimes times_;
};

/// The codecs of the logical ranks a replica stands for: every rank's in
/// the fold, its own in cluster_train.
using RankCodecs = std::span<const std::unique_ptr<GradientCompressor>>;

/// L2 norm of `codec`'s error-feedback residual; -1 when it carries none.
double residual_norm(const std::unique_ptr<GradientCompressor>& codec);

struct ReplicaState {
  std::uint64_t iteration = 0;  ///< the next one (the fold: the next epoch)
  std::vector<float> params;
  std::vector<std::vector<float>> velocity;   ///< momentum per parameter tensor ({} before a step)
  std::vector<std::vector<float>> residuals;  ///< EF residual per logical rank ({} if none)

  /// Overwrite with `replica`'s and the codecs' state, reusing the buffers.
  void capture(std::uint64_t next_iteration, Replica& replica, RankCodecs codecs);
  /// The release check: throws std::invalid_argument unless the parameter
  /// count, the momentum buffers' count and lengths, the residual count and
  /// lengths fit, with an error-feedback codec behind every residual.
  bool fits(Replica& replica, RankCodecs codecs) const;
  /// Write into `replica` and the codecs (which it must fit). A residual
  /// whose codec has since fallen back to a plain one is dropped.
  void install(Replica& replica, RankCodecs codecs) const;

  void write(std::vector<std::uint8_t>& bytes) const;
  static ReplicaState read(wire::Reader& reader);
};

/// What the rejoin donor ships a rejoining rank: its state (residuals: its
/// own one) plus what the rank cannot rebuild.
struct RejoinBlob {
  ReplicaState state;
  double theta = 0.0;                          ///< donor codec's theta
  bool fallback_active = false;                ///< lossless fallback applied
  std::vector<std::uint8_t> controller_state;  ///< RecoveryController sync
  /// The donor's rollback snapshot, so a rollback decided before the
  /// rejoiner's next snapshot point restores the same weights everywhere.
  std::optional<ReplicaState> snapshot;

  bool fits(Replica& replica, RankCodecs codecs) const {
    return state.fits(replica, codecs) && (!snapshot || snapshot->fits(replica, codecs));
  }
  void write(std::vector<std::uint8_t>& bytes) const;
  static RejoinBlob read(wire::Reader& reader);
};

/// Frame a blob that leads with a ReplicaState in one CRC frame whose
/// element count is the parameter count.
template <typename Blob>
std::vector<std::uint8_t> frame_state(const Blob& blob) {
  Packet packet;
  packet.elements = blob.state.params.size();
  blob.write(packet.bytes);
  return wire::frame_packet(packet);
}

/// Parse a frame_state() blob. A truncated, corrupt or inconsistent blob
/// (trailing bytes, element count other than the parameter count) throws
/// std::runtime_error; the shapes wait for the release.
template <typename Blob>
util::Untrusted<Blob> parse_state(std::span<const std::uint8_t> framed) {
  std::optional<Blob> blob;
  (void)wire::unframe_packet(framed).release(
      [&](const Packet& packet) {
        wire::Reader reader(packet.bytes);
        blob = Blob::read(reader);
        return reader.remaining() == 0 && blob->state.params.size() == packet.elements;
      },
      "state blob");
  return util::untrusted(std::move(*blob));
}

inline telemetry::LedgerManifest ledger_manifest(const char* trainer,
                                                 const GradientCompressor& codec,
                                                 std::size_t ranks, std::size_t iterations,
                                                 std::uint64_t seed,
                                                 const comm::NetworkModel& network,
                                                 double fault_rate) {
  return {trainer, codec.name(), ranks, iterations, seed,
          {network.name, network.latency_s, network.bandwidth_bytes_s, network.loss_rate},
          fault_rate};
}

/// A ledger row's round-trip block: alpha, rms and max error of `recon`
/// against `truth`, whole and per layer.
void record_round_trip(telemetry::LedgerIteration& row, std::span<const float> truth,
                       std::span<const float> recon, std::span<const nn::ParamSegment> layout);

}  // namespace fftgrad::core
