// Elastic-recovery overhead bench: (1) time-to-rejoin versus model size —
// the peer state-transfer blob grows linearly with parameters (params +
// momentum + snapshot), so the rejoin outage is dominated by one modelled
// p2p transfer whose simulated cost we report alongside the measured blob
// bytes; (2) the fault-free tax of arming the recovery layer — one extra
// 4-word flag allreduce per iteration plus periodic snapshot copies —
// reported as armed-vs-disabled wall time on an otherwise identical run.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/telemetry/metrics.h"

namespace {

using namespace fftgrad;

constexpr std::size_t kRanks = 4;
constexpr std::size_t kIterations = 16;

core::ClusterTrainConfig base_config(bool armed) {
  core::ClusterTrainConfig cfg;
  cfg.ranks = kRanks;
  cfg.batch_per_rank = 8;
  cfg.iterations = kIterations;
  cfg.learning_rate = 0.05f;
  cfg.seed = 23;
  cfg.recovery.enabled = armed;
  cfg.recovery.snapshot_every = 4;
  return cfg;
}

std::function<nn::Network()> mlp_factory(std::size_t hidden) {
  return [hidden] {
    util::Rng rng(71);
    return nn::models::make_mlp(16, hidden, 2, 3, rng);
  };
}

std::unique_ptr<core::GradientCompressor> noop_codec(std::size_t) {
  return std::make_unique<core::NoopCompressor>();
}

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main() {
  auto& metrics_reg = telemetry::MetricsRegistry::global();
  auto& transfer_bytes = metrics_reg.counter("fault.state_transfer_bytes");
  const comm::NetworkModel net = comm::NetworkModel::infiniband_fdr56();
  nn::SyntheticDataset data({16}, 3, 57);

  bench::print_header("Elastic recovery: time-to-rejoin vs model size (4 ranks, FDR56)");
  util::TableWriter table({"hidden", "params", "transfer KB", "p2p ms", "outage iters"});
  table.set_double_format("%.3f");

  for (std::size_t hidden : {16, 48, 96}) {
    const auto factory = mlp_factory(hidden);
    const std::size_t params = factory().param_count();

    metrics_reg.set_enabled(true);
    metrics_reg.reset();
    comm::FaultPlan plan;
    plan.crashes.push_back({.rank = 2, .at_op = 5, .rejoin_at_op = 9});
    comm::SimCluster cluster(net, plan);
    const core::ClusterTrainResult faulted =
        core::cluster_train(cluster, base_config(true), factory, noop_codec, data);
    const double bytes = transfer_bytes.value();
    metrics_reg.set_enabled(false);

    // The rejoin outage is one blob over the modelled point-to-point link;
    // its simulated seconds are the time-to-rejoin floor for this size.
    const double p2p_s = net.p2p_time(util::Bytes(bytes)).to_double();
    const double outage = static_cast<double>(faulted.degraded_iterations);

    table.add_row({static_cast<long long>(hidden), static_cast<long long>(params),
                   bytes / 1024.0, p2p_s * 1e3, outage});

    if (faulted.rejoined_ranks != 1 || !faulted.replicas_identical) {
      std::fprintf(stderr, "bench: rejoin did not complete cleanly at hidden=%zu\n", hidden);
      return 1;
    }
  }
  bench::print_table(table);

  // Fault-free tax: identical run, recovery armed vs disabled. Median of
  // three wall timings per arm to damp scheduler noise; the flag allreduce
  // and snapshot copies are the entire difference.
  const auto run_clean = [&](bool armed) {
    comm::SimCluster cluster(net, comm::FaultPlan{});
    (void)core::cluster_train(cluster, base_config(armed), mlp_factory(48), noop_codec, data);
  };
  const auto median_wall = [&](bool armed) {
    double t[3];
    for (double& x : t) x = wall_seconds([&] { run_clean(armed); });
    if (t[0] > t[1]) std::swap(t[0], t[1]);
    if (t[1] > t[2]) std::swap(t[1], t[2]);
    if (t[0] > t[1]) std::swap(t[0], t[1]);
    return t[1];
  };
  run_clean(false);  // warm-up: thread/allocator effects hit neither arm
  const double disarmed_s = median_wall(false);
  const double armed_s = median_wall(true);

  bench::print_header("Fault-free overhead of arming recovery (hidden=48)");
  std::printf("disarmed %.3f ms, armed %.3f ms, ratio %.3fx\n", disarmed_s * 1e3, armed_s * 1e3,
              armed_s / disarmed_s);
  std::puts("\nExpected shape: transfer bytes and p2p time scale linearly with the\n"
            "parameter count; the fault-free armed/disarmed ratio stays near 1.");
  return 0;
}
