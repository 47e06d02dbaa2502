// Chaos training: the fault-injection harness end to end on a real
// 8-rank BSP cluster. The fault plan combines the three failure modes the
// harness models:
//
//   * a lossy fabric — 2% of packet transmissions drop and 1% arrive with
//     flipped bits (the CRC-framed wire format detects every flip, and the
//     bounded retransmit/backoff loop recovers most of them, charged to
//     the simulated clock through the NetworkModel);
//   * one straggler — rank 5 runs 50ms/op slow for a stretch; the 10ms
//     straggler timeout lets the survivors proceed without it instead of
//     absorbing the full delay;
//   * one mid-run crash with recovery — rank 2 dies at iteration 30; the
//     remaining 7 ranks renormalize the gradient average and keep going,
//     and at op 44 the membership handshake re-admits it: the lowest live
//     rank ships a CRC-framed state blob (params, momentum, EF residual,
//     controller state) over the modelled network and the rejoiner replays
//     its RNG stream, ending bit-identical to the survivors.
//
// The recovery controller is armed too (ClusterTrainConfig::recovery), so
// monitor conditions would map to automatic remedies —
// on this healthy-codec run it stays idle, which is itself the point.
//
// The same schedule runs once fault-free for comparison. Both runs print a
// loss trace, and the fault counters show what the chaos actually cost.
//
// Build & run:  ./build/examples/chaos_training
//
// Run ledger:  FFTGRAD_LEDGER=chaos.jsonl ./build/examples/chaos_training
// writes one JSONL row per iteration for both runs — predicted-vs-charged
// collective cost (the faulty run's gap is the sampled retransmit cost the
// RetryPolicy expectation terms reconcile), round-trip quality, EF
// residual norm — which `run_report chaos.jsonl` turns into a report.
#include <cmath>
#include <cstdio>
#include <memory>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/telemetry/telemetry.h"

int main() {
  fftgrad::telemetry::init_from_env();
  using namespace fftgrad;
  if (telemetry::RunLedger::global().enabled()) {
    std::printf("run ledger active; aggregate afterwards with:  "
                "./build/examples/run_report \"$FFTGRAD_LEDGER\"\n");
  }

  constexpr std::size_t kRanks = 8;
  constexpr std::size_t kIterations = 60;

  const auto model_factory = [] {
    util::Rng rng(999);
    return nn::models::make_mlp(16, 32, 2, 3, rng);
  };
  const auto codec_factory = [](std::size_t) {
    return std::make_unique<core::ErrorFeedbackCompressor>(
        std::make_unique<core::FftCompressor>(
            core::FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10}));
  };
  nn::SyntheticDataset data({16}, 3, 23);

  core::ClusterTrainConfig cfg;
  cfg.ranks = kRanks;
  cfg.iterations = kIterations;
  cfg.learning_rate = 0.05f;
  cfg.seed = 17;
  // Modelled per-phase compute charged to the simulated clocks, so a
  // FFTGRAD_CRITPATH/FFTGRAD_TRACE run attributes every simulated second
  // (backprop, codec stages, wire+CRC, collective, retries, straggler
  // waits) instead of seeing a comm-only timeline.
  cfg.sim_compute = core::SimComputeModel{.forward_s = util::SimSeconds(2e-3),
                                          .backward_s = util::SimSeconds(4e-3),
                                          .fft_s = util::SimSeconds(1.5e-3),
                                          .quant_pack_s = util::SimSeconds(0.5e-3),
                                          .wire_crc_s = util::SimSeconds(0.3e-3),
                                          .inverse_fft_s = util::SimSeconds(1.0e-3),
                                          .dequant_s = util::SimSeconds(0.4e-3),
                                          .apply_s = util::SimSeconds(0.6e-3)};

  const auto accuracy_of = [&](const std::vector<float>& params) {
    nn::Network net = model_factory();
    net.set_params(params);
    const nn::Batch test = data.test_set(512);
    return nn::accuracy(net.forward(test.inputs), test.labels);
  };

  // Fault-free reference on the identical schedule.
  comm::SimCluster clean_cluster(comm::NetworkModel::ethernet_10g());
  const core::ClusterTrainResult clean =
      core::cluster_train(clean_cluster, cfg, model_factory, codec_factory, data);

  // The chaos plan.
  comm::FaultPlan plan;
  plan.seed = 2020;
  plan.drop_prob = 0.02;
  plan.corrupt_prob = 0.01;
  plan.straggler_timeout_s = util::SimSeconds(0.01);
  // The armed recovery controller adds one flag allreduce per iteration,
  // so with it on, iteration i spans ops 2i and 2i+1 — the plan's op
  // numbers below are 2x the iteration numbers in the story above.
  plan.stragglers.push_back(
      {.rank = 5, .slowdown_s = util::SimSeconds(0.05), .from_op = 20, .until_op = 50});
  plan.crashes.push_back({.rank = 2, .at_op = 60, .rejoin_at_op = 88});

  telemetry::MetricsRegistry& metrics = telemetry::MetricsRegistry::global();
  metrics.reset();
  metrics.set_enabled(true);
  comm::SimCluster chaos_cluster(comm::NetworkModel::ethernet_10g(), plan);
  core::ClusterTrainConfig chaos_cfg = cfg;
  chaos_cfg.recovery.enabled = true;  // arm the monitor-driven remediation
  const core::ClusterTrainResult chaos =
      core::cluster_train(chaos_cluster, chaos_cfg, model_factory, codec_factory, data);
  metrics.set_enabled(false);

  std::printf("8-rank BSP training, FFT codec with error feedback, %zu iterations\n",
              kIterations);
  std::printf("chaos plan: 2%% drop, 1%% corruption, rank 5 straggles iters 10-25 "
              "(10ms timeout), rank 2 crashes at iter 30 and rejoins at iter 44\n\n");

  std::printf("%-6s %14s %14s\n", "iter", "clean loss", "chaos loss");
  for (std::size_t i = 0; i < kIterations; i += 6) {
    const char* note = "";
    if (i == 30) note = "   <- rank 2 crashed; 7 survivors continue";
    if (i == 48) note = "   <- rank 2 back since iter 44 (peer state transfer)";
    std::printf("%-6zu %14.4f %14.4f%s\n", i, clean.mean_loss_trace[i],
                chaos.mean_loss_trace[i], note);
  }

  std::printf("\nfault counters:\n");
  const char* names[] = {"fault.retransmits",       "fault.retransmit_bytes",
                         "fault.recovery_seconds",  "fault.deliveries_failed",
                         "fault.straggle_seconds",  "fault.late_contributions",
                         "fault.rank_crashes",      "fault.state_transfer_bytes",
                         "trainer.peers_skipped",   "trainer.degraded_iterations"};
  for (const char* name : names) {
    std::printf("  %-28s %12.6g\n", name, metrics.counter(name).value());
  }

  std::printf("\n%-28s %10s %10s\n", "", "clean", "chaos");
  std::printf("%-28s %10.4f %10.4f\n", "final accuracy", accuracy_of(clean.final_params),
              accuracy_of(chaos.final_params));
  std::printf("%-28s %10.4f %10.4f\n", "sim time (s, rank 0)",
              clean.rank_sim_times[0].to_double(), chaos.rank_sim_times[0].to_double());
  std::printf("%-28s %10zu %10zu\n", "crashed ranks", clean.crashed_ranks,
              chaos.crashed_ranks);
  std::printf("%-28s %10zu %10zu\n", "rejoined ranks", clean.rejoined_ranks,
              chaos.rejoined_ranks);
  std::printf("%-28s %10zu %10zu\n", "remediations applied", clean.remediations,
              chaos.remediations);
  std::printf("%-28s %10s %10s\n", "surviving replicas identical",
              clean.replicas_identical ? "yes" : "no",
              chaos.replicas_identical ? "yes" : "no");
  std::printf("\nDegradation stayed graceful: every fault became a skipped "
              "contribution, a charged recovery, or a bounded outage ended by "
              "the rejoin handshake — never a hang or divergence.\n");
  return 0;
}
