#include "fftgrad/core/cluster_trainer.h"

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "fftgrad/analysis/causality.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/registry.h"
#include "fftgrad/core/replica.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/telemetry/trace.h"
#include "fftgrad/util/annotated_mutex.h"
#include "fftgrad/util/crc32.h"
#include "fftgrad/util/stats.h"

namespace fftgrad::core {
namespace {

/// Bounded retries for one rejoin state transfer. The transfer fate is
/// cluster-agreed (peer_transfer's `ok`), so every rank gives up together.
constexpr std::size_t kRejoinTransferAttempts = 8;

}  // namespace

ClusterTrainResult cluster_train(
    comm::SimCluster& cluster, const ClusterTrainConfig& config,
    const std::function<nn::Network()>& model_factory,
    const std::function<std::unique_ptr<GradientCompressor>(std::size_t)>& compressor_factory,
    const nn::SyntheticDataset& dataset) {
  if (config.ranks == 0) throw std::invalid_argument("cluster_train: ranks must be >= 1");

  ClusterTrainResult result;
  std::vector<std::vector<float>> final_params(config.ranks);
  std::vector<double> final_losses(config.ranks, 0.0);
  std::vector<char> finished(config.ranks, 0);
  std::vector<std::size_t> rank_skips(config.ranks, 0);
  std::vector<std::size_t> rank_degraded(config.ranks, 0);
  std::vector<std::size_t> rank_remediations(config.ranks, 0);
  // losses[r][i]: rank r's loss at iteration i; NaN marks iterations a
  // crashed rank never reached. Rows are disjoint per thread.
  std::vector<std::vector<double>> losses(
      config.ranks,
      std::vector<double>(config.iterations, std::numeric_limits<double>::quiet_NaN()));
  util::Mutex result_mutex;

  telemetry::Counter& peers_skipped =
      telemetry::MetricsRegistry::global().counter("trainer.peers_skipped");
  telemetry::Counter& degraded_iters =
      telemetry::MetricsRegistry::global().counter("trainer.degraded_iterations");

  const comm::FaultPlan& plan = cluster.faults();
  const bool recovery_enabled = config.recovery.enabled;

  const auto clocks = cluster.run(config.ranks, [&](comm::RankContext& ctx) {
    const std::size_t rank = ctx.rank();
    analysis::CausalityTracker& causality = cluster.causality();
    nn::Network model = model_factory();
    Replica replica(model, config.momentum);
    util::Rng batch_rng = batch_stream(config.seed, rank);
    const std::size_t grad_size = replica.size();
    std::unique_ptr<GradientCompressor> codec = compressor_factory(rank);
    if (!codec) throw std::logic_error("cluster_train: compressor factory returned null");
    // The replica state's view of this rank's codec; stays valid when a
    // codec fallback swaps the codec behind the pointer.
    const RankCodecs codecs(&codec, 1);

    // Rank 0 is the ledger's designated recorder: one manifest per
    // cluster.run(), one iteration row per step (SimCluster's collective
    // hooks buffer the predicted-vs-charged pairings in between).
    telemetry::RunLedger& ledger = telemetry::RunLedger::global();
    const bool ledger_on = rank == 0 && ledger.enabled();
    std::vector<nn::ParamSegment> layout;
    if (ledger_on) {
      ledger.begin_run(ledger_manifest("cluster_train", *codec, config.ranks, config.iterations,
                                       config.seed, cluster.network(),
                                       cluster.faults().attempt_failure_prob()));
      layout = model.param_layout();
    }

    // Modelled compute: charge the phase's seconds to the simulated clock
    // and emit the matching critical-path leaf span. Charges sit outside
    // the wall-timing TraceSpans so wall measurements stay untouched.
    const SimComputeModel* compute_model =
        config.sim_compute.has_value() ? &*config.sim_compute : nullptr;
    const auto charge = [&](const char* phase, util::SimSeconds seconds) {
      if (compute_model == nullptr || seconds <= util::SimSeconds(0.0)) return;
      const util::SimSeconds start = ctx.clock().time();
      ctx.clock().advance(seconds);
      telemetry::Tracer::global().record_sim_span(static_cast<std::int32_t>(rank), phase,
                                                  "cp", start.to_double(),
                                                  ctx.clock().time().to_double());
    };

    // ---- Elastic-recovery state -------------------------------------------
    RecoveryController recovery(config.recovery);
    // In-memory rollback snapshot, refreshed every snapshot_every
    // iterations at the same points on every rank.
    std::optional<ReplicaState> snapshot;

    // One peer_transfer per cohort member, donor -> rejoiner, with a
    // bounded cluster-agreed retry loop. All live ranks (including the
    // just-admitted cohort) participate in every transfer op; the donor
    // packs the full replica state the rejoiner needs into one CRC-framed
    // blob, which lands in `received` when this rank is the receiver.
    const auto run_transfers = [&](const std::vector<std::size_t>& cohort,
                                   std::uint64_t iter,
                                   std::vector<std::uint8_t>* received) {
      const std::size_t donor = ctx.rejoin_donor();
      std::vector<std::uint8_t> blob;
      if (rank == donor) {
        RejoinBlob donated;
        donated.state.capture(iter, replica, codecs);
        donated.theta = codec->theta();
        donated.fallback_active = recovery.fallback_active();
        if (recovery_enabled) donated.controller_state = recovery.save_decision_state();
        donated.snapshot = snapshot;
        blob = frame_state(donated);
      }
      for (std::size_t r : cohort) {
        bool delivered = false;
        for (std::size_t attempt = 0;
             attempt < kRejoinTransferAttempts && !delivered; ++attempt) {
          auto transfer = ctx.peer_transfer(blob, donor, r);
          delivered = transfer.ok;
          if (delivered && r == rank && received != nullptr) {
            *received = std::move(transfer.bytes);
          }
        }
        if (!delivered) {
          // The fate is cluster-agreed, so every rank throws together and
          // the run fails loudly instead of diverging.
          throw std::runtime_error("cluster_train: rejoin state transfer to rank " +
                                   std::to_string(r) + " failed after " +
                                   std::to_string(kRejoinTransferAttempts) + " attempts");
        }
      }
    };

    double last_loss = 0.0;
    std::vector<float> hash_scratch;

    const auto train_loop = [&](std::size_t from) {
      for (std::size_t iter = from; iter < config.iterations; ++iter) {
        // Every span and causality edge this thread records during the step
        // (including inside SimCluster's collectives) carries the iteration.
        telemetry::ScopedIteration iteration_scope(static_cast<std::int64_t>(iter));

        // Membership service point: re-admit any recovered rank whose
        // rejoin op has been reached, then ship it state from the donor.
        if (plan.has_recovery()) {
          const std::vector<std::size_t> admitted = ctx.admit_rejoins();
          if (!admitted.empty()) run_transfers(admitted, iter, nullptr);
        }
        if (recovery_enabled && iter % config.recovery.snapshot_every == 0) {
          if (!snapshot) snapshot.emplace();
          snapshot->capture(iter, replica, codecs);
        }

        const std::size_t skips_at_entry = rank_skips[rank];
        telemetry::LedgerIteration row;
        // SimCluster::run bound this thread to its rank track, so the step's
        // spans land per rank on the wall timeline (and the collective's
        // span inside allgather also lands on the simulated timeline).
        const nn::Batch batch = dataset.sample(config.batch_per_rank, batch_rng);
        last_loss = replica.forward(batch);
        if (compute_model != nullptr) charge("forward", compute_model->forward_s);
        losses[rank][iter] = last_loss;
        replica.backward();
        if (compute_model != nullptr) charge("backward", compute_model->backward_s);

        // Compress, allgather packets, decompress every peer, average. In
        // analysis builds the frame carries the causality trailer (sender
        // clock, collective epoch, and membership view epoch) so the
        // happens-before and membership evidence travels with the bytes
        // and is re-verified from what actually arrived.
        std::vector<std::uint8_t> wire;
        // The membership view this rank publishes under; captured before
        // the exchange because a crash *during* the allgather advances the
        // live view, while every peer's trailer was encoded under this one.
        const std::uint64_t publish_view = ctx.view_epoch();
        const Packet packet = replica.compress(*codec, [&](const Packet& compressed) {
          std::vector<std::uint8_t> trailer;
          if (causality.active()) {
            trailer = analysis::encode_trailer(
                causality.make_trailer(rank, ctx.op_index(), publish_view));
          }
          if (ledger_on || recovery_enabled) {
            row.grad_norm = util::l2_norm(replica.gradient());
            row.ratio = compressed.ratio();
          }
          wire = wire::frame_packet(compressed, trailer);
        });
        if (compute_model != nullptr) {
          charge("fft", compute_model->fft_s);
          charge("quant_pack", compute_model->quant_pack_s);
          charge("wire_crc", compute_model->wire_crc_s);
        }
        const auto gathered = ctx.allgather(wire);

        // Unframe first (this is where the CRC rejects corrupted packets and
        // empty blocks mark dropped/late/crashed peers), so the surviving
        // count — and thus the renormalized average — is known before any
        // accumulation. Every rank sees identical bytes, so every rank skips
        // the identical peers and replicas stay bit-identical.
        std::vector<std::optional<wire::WireFrame>> frames(gathered.size());
        std::size_t unframed = 0;
        for (std::size_t r = 0; r < gathered.size(); ++r) {
          if (gathered[r].empty()) {
            ++rank_skips[rank];
            peers_skipped.add(1.0);
            continue;
          }
          try {
            // Receiver-side expectation on top of the structural checks: the
            // peer's packet must describe exactly this model's element count
            // (a TaintError here degrades like any other undecodable packet).
            frames[r] = std::move(wire::unframe_frame(gathered[r], grad_size))
                            .release(
                                [&](const wire::WireFrame& frame) {
                                  return frame.packet.elements == grad_size;
                                },
                                "peer gradient frame");
            ++unframed;
          } catch (const std::exception&) {
            ++rank_skips[rank];
            peers_skipped.add(1.0);
          }
        }

        // Degraded-mode EF aging fix: when the cluster excluded this rank's
        // *own* contribution (transport drop, straggler timeout), the
        // delivered part of the corrected gradient is lost in flight —
        // re-credit it into the residual so excluded iterations delay
        // information instead of destroying it.
        if (!frames[rank]) {
          auto* ef = dynamic_cast<ErrorFeedbackCompressor*>(codec.get());
          if (ef != nullptr) ef->recredit_undelivered(packet);
        }

        // Re-verify the received causality trailers: the sender's publish
        // must happen-before this read, carry this collective's epoch, and
        // carry the membership view every rank published under. A trailer
        // that survived the CRC but fails to parse is itself a protocol
        // violation, not a degradation case.
        if (causality.active()) {
          const std::uint64_t epoch = ctx.op_index() - 1;  // the allgather above
          for (std::size_t r = 0; r < frames.size(); ++r) {
            if (!frames[r] || frames[r]->trailer.empty()) continue;
            try {
              // The trailer must claim the sender slot it arrived in and
              // carry one clock component per cluster rank; anything else is
              // a protocol violation reported below.
              const analysis::AnalysisTrailer trailer =
                  std::move(analysis::decode_trailer(frames[r]->trailer))
                      .release(
                          [&](const analysis::AnalysisTrailer& t) {
                            return t.sender == r && t.clock.size() == config.ranks;
                          },
                          "causality trailer");
              causality.verify_trailer(rank, r, trailer, epoch, publish_view);
            } catch (const std::exception& error) {
              analysis::report_violation("causality", std::string("iteration ") +
                                                          std::to_string(iter) +
                                                          ": undecodable analysis trailer "
                                                          "from rank " +
                                                          std::to_string(r) + ": " +
                                                          error.what());
            }
          }
        }

        // The ledger's round trip is this rank's own block: it came back
        // through the full compress/wire/decompress path, so (gradient,
        // reconstruction) is exactly the paper's Assumption-3.2 pair. A
        // payload that passed the CRC but that the codec still rejects
        // (vanishingly rare) drops its contribution like a missing one: the
        // average is renormalized over the rest, and with nothing left the
        // step applies no update.
        const std::size_t rejected =
            replica.average(*codec, frames, ledger_on ? &row : nullptr, rank, layout);
        if (rejected > 0) {
          rank_skips[rank] += rejected;
          peers_skipped.add(static_cast<double>(rejected));
        }
        if (compute_model != nullptr && unframed > 0) {
          charge("inverse_fft", compute_model->inverse_fft_s);
          charge("dequant", compute_model->dequant_s);
        }
        const std::size_t decoded = unframed - rejected;
        if (decoded < gathered.size()) {
          ++rank_degraded[rank];
          degraded_iters.add(1.0);
        }

        if (decoded > 0) {
          replica.apply(config.learning_rate);
          if (compute_model != nullptr) charge("apply", compute_model->apply_s);
        }

        // Cross-rank state-hash agreement: surviving replicas must hold
        // bit-identical parameters after every step, so a logical race is
        // caught at the iteration that caused it rather than as mysterious
        // end-of-run divergence.
        if (causality.active()) {
          hash_scratch.resize(grad_size);
          model.copy_params(hash_scratch);
          const std::uint32_t hash = util::crc32(std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(hash_scratch.data()),
              hash_scratch.size() * sizeof(float)));
          causality.check_agreement("trainer.state_hash", rank, iter, hash);
        }

        if (ledger_on) {
          row.iteration = iter;
          row.loss = last_loss;
          row.sim_time_s = ctx.clock().time();
          const PhaseTimes& times = replica.times();
          row.forward_s = times.forward;
          row.backward_s = times.backward;
          row.compress_s = times.compress;
          row.decompress_s = times.decompress;
          row.wire_bytes = util::byte_count(wire.size());
          row.skipped_peers = rank_skips[rank] - skips_at_entry;
          row.ef_residual_norm = residual_norm(codec);
          ledger.end_iteration(row);
        }

        // Monitor-driven remediation: OR every live rank's local condition
        // flags through a real (modelled) collective so the remedy decision
        // is identical everywhere, then apply it before the next step.
        if (recovery_enabled) {
          const double ef_norm = residual_norm(codec);
          float flags[4] = {
              std::isfinite(row.grad_norm) ? 0.0f : 1.0f,
              std::isfinite(last_loss) ? 0.0f : 1.0f,
              (row.ratio > 0.0 && row.ratio < config.recovery.min_ratio) ? 1.0f : 0.0f,
              (ef_norm >= 0.0 && std::isfinite(row.grad_norm) &&
               ef_norm > config.recovery.residual_growth_factor * row.grad_norm &&
               ef_norm > 0.0)
                  ? 1.0f
                  : 0.0f};
          ctx.allreduce_sum(flags);
          RecoverySignals signals;
          signals.nan_gradient = flags[0] > 0.5f;
          signals.nonfinite_loss = flags[1] > 0.5f;
          signals.ratio_collapse = flags[2] > 0.5f;
          signals.residual_growth = flags[3] > 0.5f;
          for (RemedyAction action : recovery.step(iter, signals)) {
            switch (action) {
              case RemedyAction::kRollback:
                // Nothing captured yet is consistent everywhere.
                if (snapshot) snapshot->install(replica, codecs);
                break;
              case RemedyAction::kCodecFallback:
                codec = make_compressor("none");
                break;
              case RemedyAction::kThetaRelax:
                codec->set_theta(codec->theta() * config.recovery.theta_relax_factor);
                break;
              case RemedyAction::kNone:
                break;
            }
          }
          if (ledger_on) {
            for (const telemetry::LedgerRemediation& remedy : recovery.drain_closed()) {
              ledger.record_remediation(remedy);
            }
          }
        }
      }
    };

    // The BSP loop, wrapped in the crash/rejoin protocol: a planned crash
    // with a recovery fate parks this thread until the survivors re-admit
    // it, then restores replica state from the donor's blob and re-enters
    // the loop at the group's iteration. A crash without a recovery fate
    // propagates to SimCluster::run's handler as before. The rank's codec
    // restarts from the factory (a codec fallback comes back with the blob)
    // and takes the donor's residual, which only shapes what the rejoiner
    // *sends*, so replica identity is exact.
    std::size_t start_iter = 0;
    for (;;) {
      try {
        train_loop(start_iter);
        break;
      } catch (const comm::RankCrashed&) {
        if (plan.rejoin_op(rank) == std::numeric_limits<std::size_t>::max()) throw;
        if (!ctx.await_rejoin()) return;  // run drained first: the rank stays dead
        std::vector<std::uint8_t> framed;
        run_transfers(ctx.rejoin_cohort(), 0, &framed);
        codec = compressor_factory(rank);  // a restarted rank's codec starts fresh
        RejoinBlob blob = parse_state<RejoinBlob>(framed).release(
            [&](const RejoinBlob& b) { return b.fits(replica, codecs); }, "rejoin state");
        blob.state.install(replica, codecs);
        if (blob.fallback_active) {
          codec = make_compressor("none");
        } else {
          codec->set_theta(blob.theta);
        }
        if (recovery_enabled) recovery.load_decision_state(blob.controller_state);
        snapshot = std::move(blob.snapshot);
        // Replay the private batch stream to the group's iteration.
        batch_rng = batch_stream(config.seed, rank);
        for (std::uint64_t i = 0; i < blob.state.iteration; ++i) {
          (void)dataset.sample(config.batch_per_rank, batch_rng);
        }
        start_iter = static_cast<std::size_t>(blob.state.iteration);
      }
    }

    if (recovery_enabled && ledger_on) {
      for (const telemetry::LedgerRemediation& remedy : recovery.finish(config.iterations)) {
        ledger.record_remediation(remedy);
      }
    }
    if (ledger_on) ledger.end_run();

    std::vector<float> params(grad_size);
    model.copy_params(params);
    {
      util::LockGuard<util::Mutex> lock(result_mutex);
      final_params[rank] = std::move(params);
      final_losses[rank] = last_loss;
      finished[rank] = 1;
      rank_remediations[rank] = recovery.remediations_total();
    }
  });

  result.rank_sim_times = clocks;

  // Result aggregation over the ranks that survived to the end. A crashed
  // rank never reaches the result block above, so `finished` doubles as
  // the survivor mask even if the cluster carried no FaultPlan. Canonical
  // per-rank counts come from a never-crashed survivor when one exists: a
  // rejoined rank completed the run but missed the iterations it was dead
  // for, so its skip/degraded counts understate the cluster's.
  std::size_t first_survivor = config.ranks;
  std::size_t canonical = config.ranks;
  std::size_t survivors = 0;
  double loss = 0.0;
  for (std::size_t r = 0; r < config.ranks; ++r) {
    if (cluster.rank_rejoined(r)) ++result.rejoined_ranks;
    if (finished[r] == 0) continue;
    if (first_survivor == config.ranks) first_survivor = r;
    if (canonical == config.ranks && !cluster.rank_rejoined(r)) canonical = r;
    ++survivors;
    loss += final_losses[r];
  }
  result.crashed_ranks = config.ranks - survivors;
  if (survivors == 0) {
    result.replicas_identical = false;
    return result;
  }
  if (canonical == config.ranks) canonical = first_survivor;
  // Every rank observes the identical skip set (faults are keyed by
  // sender), so one survivor's counts are the canonical per-rank view.
  result.skipped_contributions = rank_skips[canonical];
  result.degraded_iterations = rank_degraded[canonical];
  result.remediations = rank_remediations[canonical];
  result.final_params = final_params[first_survivor];
  result.replicas_identical = true;
  for (std::size_t r = first_survivor + 1; r < config.ranks; ++r) {
    if (finished[r] != 0 && final_params[r] != final_params[first_survivor]) {
      result.replicas_identical = false;
    }
  }
  result.mean_loss_last_iteration = loss / static_cast<double>(survivors);

  result.mean_loss_trace.assign(config.iterations, 0.0);
  for (std::size_t i = 0; i < config.iterations; ++i) {
    double sum = 0.0;
    std::size_t live = 0;
    for (std::size_t r = 0; r < config.ranks; ++r) {
      if (std::isnan(losses[r][i])) continue;
      sum += losses[r][i];
      ++live;
    }
    result.mean_loss_trace[i] = live == 0 ? std::numeric_limits<double>::quiet_NaN()
                                          : sum / static_cast<double>(live);
  }
  return result;
}

}  // namespace fftgrad::core
