#include "fftgrad/core/trainer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "fftgrad/nn/loss.h"
#include "fftgrad/perfmodel/cost_model.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/telemetry/trace.h"
#include "fftgrad/util/logging.h"
#include "fftgrad/util/stats.h"

namespace fftgrad::core {
namespace {

/// Test examples per evaluation forward pass.
constexpr std::size_t kEvalBatch = 128;

}  // namespace

// EpochRecord and the RNG states are fixed-width PODs: written as raw spans.
static_assert(std::is_trivially_copyable_v<EpochRecord> && sizeof(EpochRecord) == 64);

void TrainerCheckpoint::write(std::vector<std::uint8_t>& bytes) const {
  state.write(bytes);
  wire::put<double>(bytes, sim_time_s.to_double());
  wire::put<double>(bytes, total_wire_bytes);
  wire::put<std::uint64_t>(bytes, total_iters);
  wire::put<std::uint64_t>(bytes, rng_states.size());
  wire::put_span<const std::array<std::uint64_t, 6>>(bytes, rng_states);
  wire::put<std::uint64_t>(bytes, epochs.size());
  wire::put_span<const EpochRecord>(bytes, epochs);
}

TrainerCheckpoint TrainerCheckpoint::read(wire::Reader& reader) {
  TrainerCheckpoint ckpt;
  ckpt.state = ReplicaState::read(reader);
  ckpt.sim_time_s = util::SimSeconds(reader.get<double>());
  ckpt.total_wire_bytes = reader.get<double>();
  ckpt.total_iters = reader.get<std::uint64_t>();
  ckpt.rng_states.resize(reader.get_count(sizeof(std::array<std::uint64_t, 6>)));
  reader.get_span<std::array<std::uint64_t, 6>>(ckpt.rng_states);
  ckpt.epochs.resize(reader.get_count(sizeof(EpochRecord)));
  reader.get_span<EpochRecord>(ckpt.epochs);
  return ckpt;
}

DistributedTrainer::DistributedTrainer(nn::Network model, nn::SyntheticDataset dataset,
                                       TrainerConfig config)
    : model_(std::move(model)), dataset_(std::move(dataset)), config_(config) {
  if (config_.ranks == 0) throw std::invalid_argument("DistributedTrainer: ranks must be >= 1");
  initial_params_.resize(model_.param_count());
  model_.copy_params(initial_params_);
}

double DistributedTrainer::evaluate() {
  const nn::Batch test = dataset_.test_set(config_.test_size);
  nn::SoftmaxCrossEntropy criterion;
  std::size_t hits = 0;
  const std::size_t total = test.labels.size();
  const std::size_t input_size = dataset_.input_size();
  for (std::size_t at = 0; at < total; at += kEvalBatch) {
    const std::size_t count = std::min(kEvalBatch, total - at);
    std::vector<std::size_t> shape;
    shape.push_back(count);
    for (std::size_t d : dataset_.input_shape()) shape.push_back(d);
    tensor::Tensor chunk(std::move(shape));
    std::copy(test.inputs.data() + at * input_size,
              test.inputs.data() + (at + count) * input_size, chunk.data());
    const tensor::Tensor logits = model_.forward(chunk);
    const std::span<const std::size_t> labels(test.labels.data() + at, count);
    hits += static_cast<std::size_t>(
        std::llround(nn::accuracy(logits, labels) * static_cast<double>(count)));
  }
  return static_cast<double>(hits) / static_cast<double>(total);
}

TrainResult DistributedTrainer::train(const CompressorFactory& factory,
                                      const ThetaSchedule& theta_schedule,
                                      const nn::StepLrSchedule& lr_schedule) {
  return train(factory, theta_schedule, lr_schedule, CheckpointOptions{});
}

TrainResult DistributedTrainer::train(const CompressorFactory& factory,
                                      const ThetaSchedule& theta_schedule,
                                      const nn::StepLrSchedule& lr_schedule,
                                      const CheckpointOptions& checkpoint) {
  // Reset to the shared initialization so algorithm comparisons are fair.
  // Each train() is its own simulation (sim_time restarts at zero), so it
  // gets its own trace process.
  if (telemetry::Tracer::global().enabled()) telemetry::Tracer::global().begin_sim_session();
  model_.set_params(initial_params_);
  Replica replica(model_, kMomentum);

  const std::size_t grad_size = replica.size();
  const double raw_bytes = static_cast<double>(grad_size) * sizeof(float);
  // The wire rescale to the paper-scale gradient; the codec is charged on
  // the same bytes the exchange carries.
  const util::Bytes gradient_bytes = config_.raw_gradient_bytes.value_or(util::Bytes(raw_bytes));
  const double wire_scale = gradient_bytes.to_double() / raw_bytes;
  const util::SimSeconds compute_s =
      config_.compute ? config_.compute->compute_s : util::SimSeconds{};

  std::vector<std::unique_ptr<GradientCompressor>> compressors;
  std::vector<util::Rng> rank_rngs;
  for (std::size_t r = 0; r < config_.ranks; ++r) {
    compressors.push_back(factory(r));
    rank_rngs.push_back(batch_stream(config_.seed, r));
  }

  std::vector<float> mean_true(grad_size);
  // Every rank's packet of the current iteration as the allgather would
  // deliver it, decoded together once all ranks have compressed.
  std::vector<std::optional<wire::WireFrame>> exchanged(config_.ranks);
  std::vector<util::Bytes> block_bytes(config_.ranks);
  std::vector<StepCharges> charges(config_.ranks);

  TrainResult result;
  util::SimSeconds sim_time{};
  double total_wire = 0.0;
  std::size_t total_iters = 0;
  std::size_t start_epoch = 0;

  // The sequential trainer folds all ranks onto one replica, so the ledger
  // records the folded view: the replica's measured forward, backward and
  // compress times averaged over the rank loop, its one decode of all p
  // packets (what every rank of a real run decodes), and one collective
  // pairing per exchange (the analytic charge *is* the predicted cost here
  // — there is no sampling — plus the paper's Eq. 2 figure for the same
  // exchange so reports can compare the two models).
  telemetry::RunLedger& ledger = telemetry::RunLedger::global();
  const bool ledger_on = ledger.enabled();
  std::uint64_t ledger_iter = 0;  ///< row index within this run (resume-safe)
  std::vector<nn::ParamSegment> ledger_layout;
  if (ledger_on) {
    // The sequential trainer has no fault plan.
    ledger.begin_run(ledger_manifest("distributed_trainer", *compressors[0], config_.ranks,
                                     config_.epochs * config_.iters_per_epoch, config_.seed,
                                     config_.network, 0.0));
    ledger_layout = model_.param_layout();
  }

  telemetry::MetricsRegistry& metrics = telemetry::MetricsRegistry::global();
  telemetry::Counter& trainer_iterations = metrics.counter("trainer.iterations");
  telemetry::Counter& trainer_wire_bytes = metrics.counter("trainer.wire_bytes");
  telemetry::Counter& checkpoints_saved = metrics.counter("trainer.checkpoints_saved");
  telemetry::Counter& checkpoints_restored = metrics.counter("trainer.checkpoints_restored");
  telemetry::Histogram& trainer_alpha = metrics.histogram("trainer.alpha");

  if (checkpoint.resume != nullptr) {
    const TrainerCheckpoint resume = std::move(*checkpoint.resume).release(
        [&](const TrainerCheckpoint& ckpt) { return ckpt.fits(replica, compressors); },
        "checkpoint");
    resume.state.install(replica, compressors);
    for (std::size_t r = 0; r < config_.ranks; ++r) rank_rngs[r].load_state(resume.rng_states[r]);
    sim_time = resume.sim_time_s;
    total_wire = resume.total_wire_bytes;
    total_iters = static_cast<std::size_t>(resume.total_iters);
    start_epoch = static_cast<std::size_t>(resume.state.iteration);
    result.epochs = resume.epochs;
    checkpoints_restored.add(1.0);
  }

  // Snapshot everything a resumed run needs to replay the next epoch
  // exactly as this run would have.
  const auto capture_checkpoint = [&](std::size_t next_epoch) {
    TrainerCheckpoint ckpt;
    ckpt.state.capture(next_epoch, replica, compressors);
    ckpt.sim_time_s = sim_time;
    ckpt.total_wire_bytes = total_wire;
    ckpt.total_iters = total_iters;
    for (const util::Rng& rng : rank_rngs) ckpt.rng_states.push_back(rng.save_state());
    ckpt.epochs = result.epochs;
    checkpoints_saved.add(1.0);
    checkpoint.sink(ckpt);
  };

  for (std::size_t epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    const double lr = lr_schedule.at(epoch);
    const double theta = theta_schedule.at(epoch, lr);
    for (auto& compressor : compressors) compressor->set_theta(theta);

    double loss_sum = 0.0;
    double alpha_sum = 0.0;
    double ratio_sum = 0.0;
    std::size_t ratio_count = 0;

    for (std::size_t iter = 0; iter < config_.iters_per_epoch; ++iter) {
      // Tag every span recorded during the step (wall phases and the
      // simulated per-rank layout below) with the global iteration index.
      telemetry::ScopedIteration iteration_scope(
          static_cast<std::int64_t>(epoch * config_.iters_per_epoch + iter));
      std::fill(mean_true.begin(), mean_true.end(), 0.0f);
      util::SimSeconds slowest_rank{};
      // Ledger accumulators: measured phase sums over the rank loop
      // (reported as the across-rank mean) and the iteration's ratio sum.
      PhaseTimes ledger_sum;
      double ledger_ratio_sum = 0.0;
      const double loss_before_iter = loss_sum;
      const util::SimSeconds iter_start_sim = sim_time;

      for (std::size_t r = 0; r < config_.ranks; ++r) {
        const nn::Batch batch = dataset_.sample(config_.batch_per_rank, rank_rngs[r]);
        loss_sum += replica.forward(batch) / static_cast<double>(config_.ranks);
        replica.backward();
        exchanged[r] = wire::WireFrame{replica.compress(*compressors[r], [](const Packet&) {}), {}};
        const Packet& packet = exchanged[r]->packet;
        const std::span<const float> rank_grad = replica.gradient();
        const float inv_ranks = 1.0f / static_cast<float>(config_.ranks);
        for (std::size_t i = 0; i < grad_size; ++i) mean_true[i] += rank_grad[i] * inv_ranks;

        const util::Bytes wire{static_cast<double>(packet.wire_bytes()) * wire_scale};
        block_bytes[r] = wire;
        total_wire += wire.to_double();
        ratio_sum += packet.ratio();
        ++ratio_count;

        const PhaseTimes& times = replica.times();
        ledger_sum.forward += times.forward;
        ledger_sum.backward += times.backward;
        ledger_sum.compress += times.compress;
        ledger_ratio_sum += packet.ratio();
        charges[r] = step_charges(config_.compute, *compressors[r], gradient_bytes);
        slowest_rank =
            std::max(slowest_rank, compute_s + (charges[r].compress + charges[r].decompress));
      }

      // Each rank of a real run decodes every packet with its own codec;
      // the replicas are identical, so the fold decodes them once, with
      // rank 0's.
      if (replica.average(*compressors[0], exchanged) != 0) {
        throw std::logic_error("DistributedTrainer: a codec rejected a packet of its own kind");
      }
      const std::span<const float> mean_recon = replica.averaged();

      if (config_.record_alpha) {
        const double alpha = util::relative_error_alpha(mean_true, mean_recon);
        alpha_sum += alpha;
        trainer_alpha.observe(alpha);
      }

      // Every replica applies the same averaged reconstructed gradient.
      replica.apply(static_cast<float>(lr));

      const util::Bytes params_wire{raw_bytes * wire_scale};
      util::SimSeconds comm_s{};
      util::SimSeconds sync_s{};
      if (config_.scheme == CommScheme::kBspAllgather) {
        comm_s = config_.network.allgatherv_time(block_bytes);
        if (config_.param_sync_every != 0 &&
            (total_iters + 1) % config_.param_sync_every == 0) {
          sync_s = config_.network.broadcast_time(params_wire, config_.ranks);
        }
      } else {
        // Parameter server: workers push compressed gradients through the
        // server's inbound link (serialized) and pull fresh parameters
        // every iteration through its outbound link.
        comm_s = config_.network.ps_push_time(block_bytes) +
                 config_.network.ps_pull_time(params_wire, config_.ranks);
      }
      sim_time += slowest_rank + (comm_s + sync_s);
      ++total_iters;
      trainer_iterations.add(1.0);
      for (util::Bytes bytes : block_bytes) trainer_wire_bytes.add(bytes.to_double());

      if (ledger_on) {
        util::Bytes wire_total{};
        for (util::Bytes bytes : block_bytes) wire_total += bytes;
        const double inv_ranks = 1.0 / static_cast<double>(config_.ranks);
        const double mean_ratio = ledger_ratio_sum * inv_ranks;
        // Eq. 2 for the same exchange: the paper charges the compressed
        // message (raw / ratio) against the raw network throughput.
        const util::SimSeconds paper_s =
            mean_ratio > 0.0
                ? perfmodel::communication_cost(params_wire, config_.network.bandwidth_bytes_s,
                                                perfmodel::Ratio(mean_ratio))
                : util::SimSeconds(0.0);
        const char* kind =
            config_.scheme == CommScheme::kBspAllgather ? "allgather" : "ps_exchange";
        // No sampling on this path: the analytic charge is the prediction.
        ledger.record_collective(
            {kind, ledger_iter, wire_total, comm_s, comm_s, paper_s, 0, 0});
        if (sync_s > util::SimSeconds(0.0)) {
          ledger.record_collective({"broadcast", ledger_iter, params_wire, sync_s, sync_s,
                                    util::SimSeconds(0.0), 0, 0});
        }

        telemetry::LedgerIteration row;
        row.iteration = ledger_iter++;
        row.loss = loss_sum - loss_before_iter;  // this iteration's mean loss
        row.sim_time_s = sim_time;
        row.forward_s = ledger_sum.forward * inv_ranks;
        row.backward_s = ledger_sum.backward * inv_ranks;
        row.compress_s = ledger_sum.compress * inv_ranks;
        row.decompress_s = replica.times().decompress;
        row.grad_norm = util::l2_norm(mean_true);
        record_round_trip(row, mean_true, mean_recon, ledger_layout);
        row.ratio = mean_ratio;
        row.wire_bytes = wire_total;
        row.ef_residual_norm = residual_norm(compressors[0]);
        ledger.end_iteration(row);
      }

      telemetry::Tracer& tracer = telemetry::Tracer::global();
      if (tracer.enabled()) {
        // Lay one BSP iteration onto each rank's simulated track, exactly
        // as the accounting charged it: the modelled phases that charge
        // anything back to back, then the bulk-synchronous exchange ending
        // at the barrier.
        const char* exchange_name =
            config_.scheme == CommScheme::kBspAllgather ? "allgather" : "ps_exchange";
        const util::SimSeconds comm_start = iter_start_sim + slowest_rank;
        const util::SimSeconds comm_end = comm_start + comm_s;
        for (std::size_t r = 0; r < config_.ranks; ++r) {
          const std::int32_t rank = static_cast<std::int32_t>(r);
          const StepCharges& cost = charges[r];
          const std::pair<const char*, util::SimSeconds> phases[] = {
              {"forward", cost.forward},
              {"backward", cost.backward},
              {"compress", cost.compress},
              {"decompress", cost.decompress}};
          util::SimSeconds t = iter_start_sim;
          for (const auto& [name, seconds] : phases) {
            if (seconds <= util::SimSeconds(0.0)) continue;
            tracer.record_sim_span(rank, name, "trainer", t.to_double(),
                                   (t + seconds).to_double());
            t += seconds;
          }
          tracer.record_sim_span(rank, exchange_name, "comm", comm_start.to_double(),
                                 comm_end.to_double());
          if (sync_s > util::SimSeconds(0.0)) {
            tracer.record_sim_span(rank, "param_broadcast", "comm", comm_end.to_double(),
                                   (comm_end + sync_s).to_double());
          }
        }
      }
    }

    EpochRecord record;
    record.epoch = epoch;
    record.train_loss = loss_sum / static_cast<double>(config_.iters_per_epoch);
    record.test_accuracy = evaluate();
    record.theta = theta;
    record.lr = lr;
    record.sim_time_s = sim_time;
    record.mean_alpha =
        config_.record_alpha ? alpha_sum / static_cast<double>(config_.iters_per_epoch) : 0.0;
    record.mean_ratio = ratio_count == 0 ? 0.0 : ratio_sum / static_cast<double>(ratio_count);
    result.epochs.push_back(record);
    if (checkpoint.every_epochs != 0 && checkpoint.sink &&
        (epoch + 1) % checkpoint.every_epochs == 0) {
      capture_checkpoint(epoch + 1);
    }
    util::log_debug() << "epoch " << epoch << " loss=" << record.train_loss
                      << " acc=" << record.test_accuracy << " theta=" << theta
                      << " sim_t=" << sim_time.to_double();
  }

  if (ledger_on) ledger.end_run();
  result.final_accuracy = result.epochs.empty() ? 0.0 : result.epochs.back().test_accuracy;
  result.total_sim_time_s = sim_time;
  result.total_wire_bytes = total_wire;
  result.mean_iteration_time_s =
      total_iters == 0 ? util::SimSeconds{} : sim_time / static_cast<double>(total_iters);
  return result;
}

}  // namespace fftgrad::core
