// Chaos suite (ctest label `chaos`): the fault-injection harness end to
// end. The central claims under test:
//   * determinism — a FaultPlan's schedule is a pure function of its seed,
//     so identical plans reproduce identical fault histories and identical
//     final weights, on any host, under any sanitizer;
//   * bit-identity of the fault-free path — an empty plan leaves cluster
//     results and simulated clocks bit-identical to a cluster built
//     without one;
//   * graceful degradation — drops, corruption, stragglers, and rank
//     crashes cost accuracy and simulated time, never a hang, a crash, or
//     divergent replicas;
//   * checkpoint/restore — a resumed DistributedTrainer run reproduces the
//     uninterrupted run's weights bit-for-bit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "fftgrad/comm/fault_injection.h"
#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/telemetry/metrics.h"

namespace fftgrad::core {
namespace {

std::function<nn::Network()> mlp_factory() {
  return [] {
    util::Rng rng(999);
    return nn::models::make_mlp(8, 16, 2, 3, rng);
  };
}

std::function<std::unique_ptr<GradientCompressor>(std::size_t)> noop_codec() {
  return [](std::size_t) { return std::make_unique<NoopCompressor>(); };
}

ClusterTrainConfig small_config(std::size_t ranks, std::size_t iterations) {
  ClusterTrainConfig cfg;
  cfg.ranks = ranks;
  cfg.iterations = iterations;
  cfg.seed = 21;
  return cfg;
}

// ---------------------------------------------------------------------------
// FaultPlan: pure, seeded decisions

TEST(FaultPlan, EventsArePureFunctionsOfTheKey) {
  comm::FaultPlan plan;
  plan.seed = 1234;
  plan.drop_prob = 0.3;
  plan.corrupt_prob = 0.3;
  plan.duplicate_prob = 0.3;
  plan.delay_prob = 0.3;
  for (std::size_t sender = 0; sender < 4; ++sender) {
    for (std::size_t op = 0; op < 32; ++op) {
      const comm::FaultEvents a = plan.events(sender, op, 0);
      const comm::FaultEvents b = plan.events(sender, op, 0);
      EXPECT_EQ(a.drop, b.drop);
      EXPECT_EQ(a.corrupt, b.corrupt);
      EXPECT_EQ(a.duplicate, b.duplicate);
      EXPECT_EQ(a.delay, b.delay);
    }
  }
}

TEST(FaultPlan, DifferentSeedsSampleDifferentSchedules) {
  comm::FaultPlan a, b;
  a.seed = 1;
  b.seed = 2;
  a.drop_prob = b.drop_prob = 0.5;
  int differing = 0;
  for (std::size_t op = 0; op < 256; ++op) {
    if (a.events(0, op, 0).drop != b.events(0, op, 0).drop) ++differing;
  }
  EXPECT_GT(differing, 32);
}

TEST(FaultPlan, CorruptPayloadFlipsBitsDeterministically) {
  comm::FaultPlan plan;
  plan.seed = 99;
  std::vector<std::uint8_t> original(64, 0xAB);
  std::vector<std::uint8_t> once = original;
  std::vector<std::uint8_t> twice = original;
  plan.corrupt_payload(once, 1, 7, 0);
  plan.corrupt_payload(twice, 1, 7, 0);
  EXPECT_NE(once, original);
  EXPECT_EQ(once, twice);
  // A different key damages differently (with overwhelming probability).
  std::vector<std::uint8_t> other = original;
  plan.corrupt_payload(other, 1, 8, 0);
  EXPECT_NE(once, other);
}

TEST(FaultPlan, StragglerWindowAndCrashScheduleAreHonored) {
  comm::FaultPlan plan;
  plan.stragglers.push_back(
      {.rank = 2, .slowdown_s = util::SimSeconds(0.5), .from_op = 3, .until_op = 6});
  plan.crashes.push_back({.rank = 1, .at_op = 10});
  EXPECT_EQ(plan.straggle_s(2, 2), util::SimSeconds(0.0));
  EXPECT_EQ(plan.straggle_s(2, 3), util::SimSeconds(0.5));
  EXPECT_EQ(plan.straggle_s(2, 5), util::SimSeconds(0.5));
  EXPECT_EQ(plan.straggle_s(2, 6), util::SimSeconds(0.0));
  EXPECT_EQ(plan.straggle_s(0, 4), util::SimSeconds(0.0));
  EXPECT_FALSE(plan.crashes_at(1, 9));
  EXPECT_TRUE(plan.crashes_at(1, 10));
  EXPECT_TRUE(plan.crashes_at(1, 11));
  EXPECT_FALSE(plan.crashes_at(0, 10));
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.has_transport_faults());
}

// ---------------------------------------------------------------------------
// resolve_delivery: the bounded retry loop

TEST(ResolveDelivery, CleanPlanDeliversFirstTryAtZeroCost) {
  const comm::FaultPlan plan;
  const comm::NetworkModel net = comm::NetworkModel::ethernet_1g();
  const comm::DeliveryOutcome out =
      comm::resolve_delivery(plan, net, 0, 0, util::Bytes(1e6));
  EXPECT_TRUE(out.delivered);
  EXPECT_FALSE(out.corrupted);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.recovery_seconds, util::SimSeconds(0.0));
  EXPECT_EQ(out.extra_bytes, util::Bytes(0.0));
}

TEST(ResolveDelivery, CertainDropExhaustsTheRetryBudget) {
  comm::FaultPlan plan;
  plan.seed = 5;
  plan.drop_prob = 1.0;
  comm::NetworkModel net = comm::NetworkModel::ethernet_1g();
  net.retry.max_retries = 4;
  const util::Bytes bytes{1e6};
  const comm::DeliveryOutcome out = comm::resolve_delivery(plan, net, 0, 0, bytes);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 1u + net.retry.max_retries);
  // Every failed attempt but the last charges one retransmission plus its
  // backoff step.
  util::SimSeconds expected{0.0};
  for (std::size_t retry = 0; retry < net.retry.max_retries; ++retry) {
    expected += net.retry.backoff_s(retry) + net.p2p_base_time(bytes);
  }
  EXPECT_DOUBLE_EQ(out.recovery_seconds.to_double(), expected.to_double());
  EXPECT_DOUBLE_EQ(out.extra_bytes.to_double(),
                   (bytes * static_cast<double>(net.retry.max_retries)).to_double());
}

TEST(ResolveDelivery, CertainCorruptionDeliversDamagedAfterRetries) {
  comm::FaultPlan plan;
  plan.seed = 5;
  plan.corrupt_prob = 1.0;
  const comm::NetworkModel net = comm::NetworkModel::ethernet_1g();
  const comm::DeliveryOutcome out =
      comm::resolve_delivery(plan, net, 2, 9, util::Bytes(4096));
  EXPECT_TRUE(out.delivered);
  EXPECT_TRUE(out.corrupted);
  EXPECT_EQ(out.attempts, 1u + net.retry.max_retries);
  EXPECT_GT(out.recovery_seconds, util::SimSeconds(0.0));
}

TEST(ResolveDelivery, ModerateLossUsuallyRecoversWithinBudget) {
  comm::FaultPlan plan;
  plan.seed = 17;
  plan.drop_prob = 0.3;
  const comm::NetworkModel net = comm::NetworkModel::ethernet_1g();
  std::size_t delivered = 0;
  std::size_t retransmits = 0;
  for (std::size_t op = 0; op < 200; ++op) {
    const comm::DeliveryOutcome out =
        comm::resolve_delivery(plan, net, 1, op, util::Bytes(1000));
    delivered += out.delivered ? 1 : 0;
    retransmits += out.attempts - 1;
  }
  // P(all 4 attempts drop) = 0.3^4 < 1%; nearly everything gets through,
  // but a third of first attempts needed recovery.
  EXPECT_GT(delivered, 190u);
  EXPECT_GT(retransmits, 40u);
}

// ---------------------------------------------------------------------------
// NetworkModel: analytic lossy-link accounting

TEST(NetworkModelLoss, ZeroLossRateKeepsTheBaseFormula) {
  const comm::NetworkModel net = comm::NetworkModel::infiniband_fdr56();
  EXPECT_EQ(net.loss_rate, 0.0);
  EXPECT_DOUBLE_EQ(net.p2p_time(util::Bytes(12345.0)).to_double(),
                   net.p2p_base_time(util::Bytes(12345.0)).to_double());
  EXPECT_DOUBLE_EQ(net.expected_sends(), 1.0);
  EXPECT_DOUBLE_EQ(net.expected_backoff_s().to_double(), 0.0);
}

TEST(NetworkModelLoss, LossInflatesEveryCollective) {
  comm::NetworkModel clean = comm::NetworkModel::ethernet_10g();
  comm::NetworkModel lossy = clean;
  lossy.loss_rate = 0.05;
  // E[sends] for a bounded geometric with p = 0.05 and 3 retries.
  const double p = 0.05;
  EXPECT_DOUBLE_EQ(lossy.expected_sends(), 1.0 + p + p * p + p * p * p);
  EXPECT_GT(lossy.expected_backoff_s(), util::SimSeconds(0.0));
  const util::Bytes mb{1e6};
  EXPECT_GT(lossy.p2p_time(mb), clean.p2p_time(mb));
  EXPECT_GT(lossy.allgather_time(mb, 8), clean.allgather_time(mb, 8));
  EXPECT_GT(lossy.allreduce_time(mb, 8), clean.allreduce_time(mb, 8));
  EXPECT_GT(lossy.broadcast_time(mb, 8), clean.broadcast_time(mb, 8));
  const std::vector<util::Bytes> blocks(8, mb);
  EXPECT_GT(lossy.allgatherv_time(blocks), clean.allgatherv_time(blocks));
  EXPECT_GT(lossy.ps_push_time(blocks), clean.ps_push_time(blocks));
}

TEST(NetworkModelLoss, BackoffScheduleIsExponential) {
  comm::RetryPolicy retry;
  retry.backoff_base_s = util::SimSeconds(1e-3);
  retry.backoff_factor = 2.0;
  EXPECT_DOUBLE_EQ(retry.backoff_s(0).to_double(), 1e-3);
  EXPECT_DOUBLE_EQ(retry.backoff_s(1).to_double(), 2e-3);
  EXPECT_DOUBLE_EQ(retry.backoff_s(2).to_double(), 4e-3);
}

// ---------------------------------------------------------------------------
// SimCluster under fault plans

TEST(ChaosCluster, EmptyPlanIsBitIdenticalToNoPlan) {
  const auto run_training = [](comm::SimCluster& cluster) {
    nn::SyntheticDataset data({8}, 3, 31);
    return cluster_train(cluster, small_config(4, 8), mlp_factory(), noop_codec(), data);
  };
  comm::SimCluster plain(comm::NetworkModel::infiniband_fdr56());
  comm::SimCluster with_empty_plan(comm::NetworkModel::infiniband_fdr56(), comm::FaultPlan{});
  const ClusterTrainResult a = run_training(plain);
  const ClusterTrainResult b = run_training(with_empty_plan);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  EXPECT_EQ(0, std::memcmp(a.final_params.data(), b.final_params.data(),
                           a.final_params.size() * sizeof(float)));
  ASSERT_EQ(a.rank_sim_times.size(), b.rank_sim_times.size());
  for (std::size_t r = 0; r < a.rank_sim_times.size(); ++r) {
    EXPECT_EQ(a.rank_sim_times[r], b.rank_sim_times[r]) << r;
  }
  EXPECT_EQ(a.crashed_ranks, 0u);
  EXPECT_EQ(b.skipped_contributions, 0u);
  EXPECT_EQ(b.degraded_iterations, 0u);
}

TEST(ChaosCluster, SameSeedReproducesIdenticalWeights) {
  const auto run_once = [] {
    comm::FaultPlan plan;
    plan.seed = 77;
    plan.drop_prob = 0.05;
    plan.corrupt_prob = 0.03;
    plan.duplicate_prob = 0.02;
    plan.delay_prob = 0.05;
    plan.delay_s = util::SimSeconds(1e-4);
    comm::SimCluster cluster(comm::NetworkModel::ethernet_10g(), plan);
    nn::SyntheticDataset data({8}, 3, 32);
    return cluster_train(cluster, small_config(4, 12), mlp_factory(), noop_codec(), data);
  };
  const ClusterTrainResult a = run_once();
  const ClusterTrainResult b = run_once();
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  EXPECT_EQ(0, std::memcmp(a.final_params.data(), b.final_params.data(),
                           a.final_params.size() * sizeof(float)));
  EXPECT_EQ(a.skipped_contributions, b.skipped_contributions);
  EXPECT_EQ(a.degraded_iterations, b.degraded_iterations);
  for (std::size_t r = 0; r < a.rank_sim_times.size(); ++r) {
    EXPECT_EQ(a.rank_sim_times[r], b.rank_sim_times[r]) << r;
  }
}

TEST(ChaosCluster, SixteenSeededPlansNeverHangOrDiverge) {
  // The soak: transport faults, a straggler, and (on half the seeds) a
  // mid-run crash, under both a plain and an error-feedback codec. Every
  // plan must complete with identical surviving replicas and finite loss.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    comm::FaultPlan plan;
    plan.seed = seed;
    plan.drop_prob = 0.04;
    plan.corrupt_prob = 0.03;
    plan.duplicate_prob = 0.02;
    plan.delay_prob = 0.04;
    plan.delay_s = util::SimSeconds(5e-5);
    plan.straggler_timeout_s = util::SimSeconds(0.05);
    plan.stragglers.push_back(
        {.rank = seed % 4, .slowdown_s = util::SimSeconds(0.2), .from_op = 6, .until_op = 12});
    if (seed % 2 == 1) plan.crashes.push_back({.rank = (seed + 1) % 4, .at_op = 9});

    comm::SimCluster cluster(comm::NetworkModel::ethernet_10g(), plan);
    nn::SyntheticDataset data({8}, 3, 33);
    const auto codec = [seed](std::size_t) -> std::unique_ptr<GradientCompressor> {
      if (seed % 4 < 2) return std::make_unique<NoopCompressor>();
      return std::make_unique<ErrorFeedbackCompressor>(std::make_unique<FftCompressor>(
          FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10}));
    };
    const ClusterTrainResult result =
        cluster_train(cluster, small_config(4, 15), mlp_factory(), codec, data);
    EXPECT_TRUE(result.replicas_identical) << "seed " << seed;
    EXPECT_EQ(result.crashed_ranks, seed % 2 == 1 ? 1u : 0u) << "seed " << seed;
    EXPECT_TRUE(std::isfinite(result.mean_loss_last_iteration)) << "seed " << seed;
    for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p)) << "seed " << seed;
  }
}

TEST(ChaosCluster, AccuracyStaysCloseUnderFivePercentDrop) {
  // ISSUE acceptance: <= 5% packet drop must cost at most 2 accuracy
  // points against the fault-free run on the same schedule. The retry
  // budget is zeroed so every drop actually surfaces as a skipped
  // contribution (with the default budget a 5% drop rate is recovered
  // almost completely); renormalizing the average over the survivors keeps
  // the step direction right, just noisier.
  nn::SyntheticDataset data({16}, 3, 34);
  const auto model_factory = [] {
    util::Rng rng(999);
    return nn::models::make_mlp(16, 32, 2, 3, rng);
  };
  const auto accuracy_of = [&](const std::vector<float>& params) {
    nn::Network net = model_factory();
    net.set_params(params);
    const nn::Batch test = data.test_set(256);
    return nn::accuracy(net.forward(test.inputs), test.labels);
  };
  const auto run_with = [&](const comm::FaultPlan& plan) {
    comm::NetworkModel net = comm::NetworkModel::infiniband_fdr56();
    net.retry.max_retries = 0;  // no recovery: every drop is a lost block
    comm::SimCluster cluster(net, plan);
    ClusterTrainConfig cfg = small_config(4, 80);
    cfg.learning_rate = 0.05f;
    return cluster_train(cluster, cfg, model_factory, noop_codec(), data);
  };

  const ClusterTrainResult clean = run_with(comm::FaultPlan{});
  comm::FaultPlan lossy;
  lossy.seed = 3;
  lossy.drop_prob = 0.05;
  const ClusterTrainResult faulty = run_with(lossy);

  EXPECT_GT(faulty.skipped_contributions, 0u);
  EXPECT_TRUE(faulty.replicas_identical);
  const double clean_acc = accuracy_of(clean.final_params);
  const double faulty_acc = accuracy_of(faulty.final_params);
  EXPECT_GE(faulty_acc, clean_acc - 0.02)
      << "clean " << clean_acc << " vs faulty " << faulty_acc;
}

TEST(ChaosCluster, CrashedRankDegradesGracefully) {
  comm::FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_op = 8});
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);
  nn::SyntheticDataset data({8}, 3, 35);
  const ClusterTrainResult result =
      cluster_train(cluster, small_config(4, 12), mlp_factory(), noop_codec(), data);
  EXPECT_EQ(result.crashed_ranks, 1u);
  EXPECT_TRUE(cluster.rank_crashed(2));
  EXPECT_FALSE(cluster.rank_crashed(0));
  EXPECT_EQ(cluster.survivors(), 3u);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_GT(result.skipped_contributions, 0u);
  EXPECT_GT(result.degraded_iterations, 0u);
  for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p));
  // The survivors kept learning after the crash.
  EXPECT_TRUE(std::isfinite(result.mean_loss_last_iteration));
}

TEST(ChaosCluster, StragglerTimeoutBoundsTheSimulatedClock) {
  // A 1-second-per-op straggler would dominate the timeline; with a 10ms
  // timeout the survivors proceed and total simulated time stays bounded.
  const auto run_with_timeout = [](double timeout_s) {
    comm::FaultPlan plan;
    plan.stragglers.push_back(
        {.rank = 1, .slowdown_s = util::SimSeconds(1.0), .from_op = 2, .until_op = 10});
    plan.straggler_timeout_s = util::SimSeconds(timeout_s);
    comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);
    nn::SyntheticDataset data({8}, 3, 36);
    return cluster_train(cluster, small_config(4, 10), mlp_factory(), noop_codec(), data);
  };
  const ClusterTrainResult waiting = run_with_timeout(0.0);   // plain BSP: absorb it
  const ClusterTrainResult bounded = run_with_timeout(0.01);  // exclude the late rank
  EXPECT_GT(waiting.rank_sim_times[0], util::SimSeconds(7.0));  // ~8 straggled ops x 1s
  EXPECT_LT(bounded.rank_sim_times[0], util::SimSeconds(1.0));
  EXPECT_GT(bounded.skipped_contributions, 0u);
  EXPECT_TRUE(bounded.replicas_identical);
  // Without a timeout nothing is excluded: same weights, slower clock.
  ASSERT_EQ(waiting.final_params.size(), bounded.final_params.size());
  EXPECT_EQ(waiting.skipped_contributions, 0u);
}

TEST(ChaosCluster, TransportCountersAccumulate) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  comm::FaultPlan plan;
  plan.seed = 11;
  plan.drop_prob = 0.3;
  plan.corrupt_prob = 0.2;
  plan.crashes.push_back({.rank = 3, .at_op = 6});
  comm::SimCluster cluster(comm::NetworkModel::ethernet_10g(), plan);
  nn::SyntheticDataset data({8}, 3, 37);
  const ClusterTrainResult result =
      cluster_train(cluster, small_config(4, 10), mlp_factory(), noop_codec(), data);
  registry.set_enabled(false);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_GT(registry.counter("fault.retransmits").value(), 0.0);
  EXPECT_GT(registry.counter("fault.retransmit_bytes").value(), 0.0);
  EXPECT_GT(registry.counter("fault.recovery_seconds").value(), 0.0);
  EXPECT_EQ(registry.counter("fault.rank_crashes").value(), 1.0);
  EXPECT_GT(registry.counter("trainer.peers_skipped").value(), 0.0);
  registry.reset();
}

// ---------------------------------------------------------------------------
// Crash-and-rejoin: elastic recovery through the membership protocol

TEST(ChaosCluster, MonitorThreadObservesMembershipWithoutRacing) {
  // Lock-discipline regression (tsan preset): SimCluster's membership
  // accessors — rank_crashed(), survivors(), rank_rejoined(), view_epoch()
  // — used to read dead_/rejoined_/view_epoch_ without the barrier mutex,
  // racing with the membership writes a crash or rejoin performs. They now
  // lock, so an external monitor thread may poll them concurrently with a
  // live run. This test IS that monitor: under -fsanitize=thread any
  // regression to unguarded reads is a hard failure, and the epoch
  // observations must be monotone (each membership change bumps the view).
  // On a loaded host the scheduler may not run the monitor during the
  // whole run, so the run starts only after its first poll, and the
  // monitor keeps polling past the run until it has seen rank 3's
  // terminal crash (or a deadline passes, which fails saw_crash).
  comm::FaultPlan plan;
  plan.crashes.push_back({.rank = 1, .at_op = 6, .rejoin_at_op = 14});
  plan.crashes.push_back({.rank = 3, .at_op = 10});
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);

  std::atomic<bool> polled{false};
  std::atomic<bool> run_done{false};
  std::atomic<bool> saw_crash{false};
  std::atomic<bool> monotone{true};
  std::thread monitor([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    std::uint64_t last_epoch = 0;
    while (!(run_done.load(std::memory_order_acquire) && saw_crash.load()) &&
           std::chrono::steady_clock::now() < deadline) {
      const std::uint64_t epoch = cluster.view_epoch();
      if (epoch < last_epoch) monotone.store(false, std::memory_order_relaxed);
      last_epoch = epoch;
      if (cluster.rank_crashed(3)) saw_crash.store(true);
      (void)cluster.survivors();
      (void)cluster.rank_rejoined(1);
      polled.store(true, std::memory_order_release);
      std::this_thread::yield();
    }
  });
  while (!polled.load(std::memory_order_acquire)) std::this_thread::yield();

  nn::SyntheticDataset data({8}, 3, 41);
  const ClusterTrainResult result =
      cluster_train(cluster, small_config(4, 20), mlp_factory(), noop_codec(), data);
  run_done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_TRUE(monotone.load());
  EXPECT_TRUE(saw_crash.load());  // rank 3's crash is terminal and visible
  EXPECT_TRUE(cluster.rank_crashed(3));
  EXPECT_TRUE(cluster.rank_rejoined(1));
  EXPECT_EQ(cluster.survivors(), 3u);
  EXPECT_GE(cluster.view_epoch(), 3u);  // crash, crash, rejoin: >= 3 bumps
  EXPECT_EQ(result.crashed_ranks, 1u);
  EXPECT_EQ(result.rejoined_ranks, 1u);
  EXPECT_TRUE(result.replicas_identical);
}

TEST(ChaosRejoin, CrashAndRejoinConvergesWithinTwoPercent) {
  // ISSUE acceptance (a): a 4-rank run with a crash at iteration k and a
  // rejoin at k+r must converge within 2 accuracy points of the crash-free
  // baseline — and the rejoiner, fed the donor's state blob, must end
  // bit-identical to the survivors (replicas_identical covers all four).
  nn::SyntheticDataset data({16}, 3, 38);
  const auto model_factory = [] {
    util::Rng rng(999);
    return nn::models::make_mlp(16, 32, 2, 3, rng);
  };
  const auto accuracy_of = [&](const std::vector<float>& params) {
    nn::Network net = model_factory();
    net.set_params(params);
    const nn::Batch test = data.test_set(256);
    return nn::accuracy(net.forward(test.inputs), test.labels);
  };
  const auto run_with = [&](const comm::FaultPlan& plan) {
    comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);
    ClusterTrainConfig cfg = small_config(4, 80);
    cfg.learning_rate = 0.05f;
    return cluster_train(cluster, cfg, model_factory, noop_codec(), data);
  };

  const ClusterTrainResult clean = run_with(comm::FaultPlan{});
  comm::FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_op = 20, .rejoin_at_op = 32});
  const ClusterTrainResult recovered = run_with(plan);

  EXPECT_EQ(recovered.rejoined_ranks, 1u);
  EXPECT_EQ(recovered.crashed_ranks, 0u);  // the crash was not terminal
  EXPECT_TRUE(recovered.replicas_identical);
  EXPECT_GT(recovered.degraded_iterations, 0u);  // the outage was real
  const double clean_acc = accuracy_of(clean.final_params);
  const double recovered_acc = accuracy_of(recovered.final_params);
  EXPECT_GE(recovered_acc, clean_acc - 0.02)
      << "clean " << clean_acc << " vs recovered " << recovered_acc;
}

TEST(ChaosRejoin, SixteenSeedSoakIsBitIdenticalAcrossReruns) {
  // 16 seeded crash-with-recovery plans, half under an error-feedback FFT
  // codec, each run twice: the rejoin handshake, the peer state transfer,
  // and the RNG replay are all deterministic, so reruns must agree to the
  // bit (and in analysis builds the causality tracker aborts the test on
  // any violation across the membership transitions).
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto run_once = [seed] {
      comm::FaultPlan plan;
      plan.seed = seed;
      const std::size_t victim = 1 + seed % 3;  // rank 0 stays (ledger donor path)
      const std::size_t crash_op = 4 + seed % 4;
      plan.crashes.push_back({.rank = victim,
                              .at_op = crash_op,
                              .rejoin_at_op = crash_op + 3 + seed % 5});
      comm::SimCluster cluster(comm::NetworkModel::ethernet_10g(), plan);
      nn::SyntheticDataset data({8}, 3, 39);
      const auto codec = [seed](std::size_t) -> std::unique_ptr<GradientCompressor> {
        if (seed % 2 == 0) return std::make_unique<NoopCompressor>();
        return std::make_unique<ErrorFeedbackCompressor>(std::make_unique<FftCompressor>(
            FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10}));
      };
      return cluster_train(cluster, small_config(4, 18), mlp_factory(), codec, data);
    };
    const ClusterTrainResult a = run_once();
    const ClusterTrainResult b = run_once();
    EXPECT_EQ(a.rejoined_ranks, 1u) << "seed " << seed;
    EXPECT_EQ(a.crashed_ranks, 0u) << "seed " << seed;
    EXPECT_TRUE(a.replicas_identical) << "seed " << seed;
    EXPECT_TRUE(std::isfinite(a.mean_loss_last_iteration)) << "seed " << seed;
    ASSERT_EQ(a.final_params.size(), b.final_params.size()) << "seed " << seed;
    EXPECT_EQ(0, std::memcmp(a.final_params.data(), b.final_params.data(),
                             a.final_params.size() * sizeof(float)))
        << "seed " << seed;
    ASSERT_EQ(a.rank_sim_times.size(), b.rank_sim_times.size());
    for (std::size_t r = 0; r < a.rank_sim_times.size(); ++r) {
      EXPECT_EQ(a.rank_sim_times[r], b.rank_sim_times[r]) << "seed " << seed << " rank " << r;
    }
  }
}

TEST(ChaosRejoin, StateTransferRetriesThroughTransportFaults) {
  // The rejoin blob travels the same lossy link as everything else; the
  // cluster-agreed retry loop must get it through a 20% drop rate without
  // hanging or diverging.
  comm::FaultPlan plan;
  plan.seed = 13;
  plan.drop_prob = 0.2;
  plan.crashes.push_back({.rank = 3, .at_op = 5, .rejoin_at_op = 9});
  comm::SimCluster cluster(comm::NetworkModel::ethernet_10g(), plan);
  nn::SyntheticDataset data({8}, 3, 40);
  const ClusterTrainResult result =
      cluster_train(cluster, small_config(4, 14), mlp_factory(), noop_codec(), data);
  EXPECT_EQ(result.rejoined_ranks, 1u);
  EXPECT_EQ(result.crashed_ranks, 0u);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_TRUE(std::isfinite(result.mean_loss_last_iteration));
}

TEST(ChaosRejoin, TwoRanksCanRejoinInOneCohort) {
  comm::FaultPlan plan;
  plan.crashes.push_back({.rank = 1, .at_op = 4, .rejoin_at_op = 8});
  plan.crashes.push_back({.rank = 3, .at_op = 5, .rejoin_at_op = 8});
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);
  nn::SyntheticDataset data({8}, 3, 42);
  const ClusterTrainResult result =
      cluster_train(cluster, small_config(4, 14), mlp_factory(), noop_codec(), data);
  EXPECT_EQ(result.rejoined_ranks, 2u);
  EXPECT_EQ(result.crashed_ranks, 0u);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_TRUE(cluster.rank_rejoined(1));
  EXPECT_TRUE(cluster.rank_rejoined(3));
}

TEST(ChaosRejoin, RejoinOpPastTheRunLeavesTheCrashTerminal) {
  // A recovery fate whose rejoin op is never reached degrades exactly like
  // a permanent crash: the survivors finish, the parked rank drains out.
  comm::FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_op = 5, .rejoin_at_op = 100000});
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);
  nn::SyntheticDataset data({8}, 3, 43);
  const ClusterTrainResult result =
      cluster_train(cluster, small_config(4, 10), mlp_factory(), noop_codec(), data);
  EXPECT_EQ(result.rejoined_ranks, 0u);
  EXPECT_EQ(result.crashed_ranks, 1u);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_TRUE(std::isfinite(result.mean_loss_last_iteration));
}

TEST(ChaosRejoin, ExcludedOwnContributionKeepsTheFeedbackLoopHealthy) {
  // Degraded-mode EF aging fix, cluster level: a straggler excluded past
  // the timeout re-credits its own undelivered block into the residual
  // (see ErrorFeedbackRecredit in test_recovery.cpp for the exact-value
  // unit test), and the run stays deterministic and bit-identical.
  const auto run_once = [] {
    comm::FaultPlan plan;
    plan.straggler_timeout_s = util::SimSeconds(0.05);
    plan.stragglers.push_back(
        {.rank = 1, .slowdown_s = util::SimSeconds(0.2), .from_op = 3, .until_op = 7});
    comm::SimCluster cluster(comm::NetworkModel::ethernet_10g(), plan);
    nn::SyntheticDataset data({8}, 3, 44);
    const auto codec = [](std::size_t) {
      return std::make_unique<ErrorFeedbackCompressor>(std::make_unique<FftCompressor>(
          FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10}));
    };
    return cluster_train(cluster, small_config(4, 12), mlp_factory(), codec, data);
  };
  const ClusterTrainResult a = run_once();
  const ClusterTrainResult b = run_once();
  EXPECT_GT(a.skipped_contributions, 0u);
  EXPECT_TRUE(a.replicas_identical);
  EXPECT_TRUE(std::isfinite(a.mean_loss_last_iteration));
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  EXPECT_EQ(0, std::memcmp(a.final_params.data(), b.final_params.data(),
                           a.final_params.size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// DistributedTrainer checkpoint/restore

TrainerConfig checkpoint_trainer_config() {
  TrainerConfig cfg;
  cfg.ranks = 3;
  cfg.batch_per_rank = 8;
  cfg.epochs = 6;
  cfg.iters_per_epoch = 5;
  cfg.test_size = 64;
  cfg.seed = 77;
  return cfg;
}

DistributedTrainer make_checkpoint_trainer() {
  util::Rng rng(555);
  return DistributedTrainer(nn::models::make_mlp(8, 16, 2, 3, rng),
                            nn::SyntheticDataset({8}, 3, 41), checkpoint_trainer_config());
}

/// The tests' own release of a parsed checkpoint: one batch-stream state
/// per expected rank. train() checks the shapes when it resumes.
TrainerCheckpoint released(util::Untrusted<TrainerCheckpoint> parsed,
                           std::size_t ranks = checkpoint_trainer_config().ranks) {
  return std::move(parsed).release(
      [&](const TrainerCheckpoint& ckpt) { return ckpt.rng_states.size() == ranks; },
      "test checkpoint");
}

CompressorFactory ef_fft_factory() {
  return [](std::size_t) {
    return std::make_unique<ErrorFeedbackCompressor>(std::make_unique<FftCompressor>(
        FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10}));
  };
}

TEST(TrainerCheckpoint, RestoreReproducesTheUninterruptedRunBitForBit) {
  const nn::StepLrSchedule lr({{0, 0.05f}, {4, 0.01f}});
  const FixedTheta theta(0.5);

  // Uninterrupted reference run.
  DistributedTrainer reference = make_checkpoint_trainer();
  const TrainResult full = reference.train(ef_fft_factory(), theta, lr);
  std::vector<float> full_params(reference.model().param_count());
  reference.model().copy_params(full_params);

  // Same run, checkpointing every 2 epochs; keep the epoch-4 checkpoint.
  DistributedTrainer first = make_checkpoint_trainer();
  std::vector<std::uint8_t> blob;
  CheckpointOptions capture;
  capture.every_epochs = 2;
  capture.sink = [&](const TrainerCheckpoint& ckpt) {
    if (ckpt.state.iteration == 4) blob = frame_state(ckpt);
  };
  first.train(ef_fft_factory(), theta, lr, capture);
  ASSERT_FALSE(blob.empty());
  EXPECT_EQ(released(parse_state<TrainerCheckpoint>(blob)).state.iteration, 4u);

  // A fresh trainer (fresh model object, fresh optimizer) resumes from the
  // serialized blob and must land on bit-identical weights and records.
  util::Untrusted<TrainerCheckpoint> restored = parse_state<TrainerCheckpoint>(blob);
  DistributedTrainer second = make_checkpoint_trainer();
  CheckpointOptions resume;
  resume.resume = &restored;
  const TrainResult resumed = second.train(ef_fft_factory(), theta, lr, resume);
  std::vector<float> resumed_params(second.model().param_count());
  second.model().copy_params(resumed_params);

  ASSERT_EQ(resumed_params.size(), full_params.size());
  EXPECT_EQ(0, std::memcmp(resumed_params.data(), full_params.data(),
                           full_params.size() * sizeof(float)));
  ASSERT_EQ(resumed.epochs.size(), full.epochs.size());
  for (std::size_t e = 0; e < full.epochs.size(); ++e) {
    EXPECT_EQ(resumed.epochs[e].train_loss, full.epochs[e].train_loss) << e;
    EXPECT_EQ(resumed.epochs[e].test_accuracy, full.epochs[e].test_accuracy) << e;
    EXPECT_EQ(resumed.epochs[e].sim_time_s, full.epochs[e].sim_time_s) << e;
  }
  // Wire bytes and simulated time are pure functions of the packets, so
  // they restore exactly.
  EXPECT_EQ(resumed.total_wire_bytes, full.total_wire_bytes);
  EXPECT_EQ(resumed.total_sim_time_s, full.total_sim_time_s);
}

TEST(TrainerCheckpoint, SerializationRoundTripsEveryField) {
  TrainerCheckpoint ckpt;
  ckpt.state.iteration = 9;
  ckpt.sim_time_s = util::SimSeconds(1.5);
  ckpt.total_wire_bytes = 4096.0;
  ckpt.total_iters = 123;
  ckpt.state.params = {1.0f, -2.5f, 3.25f};
  ckpt.state.velocity = {{0.1f, 0.2f}, {}, {0.3f}};
  ckpt.state.residuals = {{-1.0f}, {2.0f, 4.0f}};
  ckpt.rng_states.push_back({1, 2, 3, 4, 5, 6});
  EpochRecord record;
  record.epoch = 8;
  record.train_loss = 0.25;
  record.test_accuracy = 0.75;
  record.theta = 0.5;
  record.lr = 0.01;
  record.sim_time_s = util::SimSeconds(1.25);
  record.mean_alpha = 0.1;
  record.mean_ratio = 10.0;
  ckpt.epochs.push_back(record);

  const TrainerCheckpoint back = released(parse_state<TrainerCheckpoint>(frame_state(ckpt)), 1);
  EXPECT_EQ(back.state.iteration, ckpt.state.iteration);
  EXPECT_EQ(back.sim_time_s, ckpt.sim_time_s);
  EXPECT_EQ(back.total_wire_bytes, ckpt.total_wire_bytes);
  EXPECT_EQ(back.total_iters, ckpt.total_iters);
  EXPECT_EQ(back.state.params, ckpt.state.params);
  EXPECT_EQ(back.state.velocity, ckpt.state.velocity);
  EXPECT_EQ(back.state.residuals, ckpt.state.residuals);
  ASSERT_EQ(back.rng_states.size(), 1u);
  EXPECT_EQ(back.rng_states[0], ckpt.rng_states[0]);
  ASSERT_EQ(back.epochs.size(), 1u);
  EXPECT_EQ(back.epochs[0].epoch, record.epoch);
  EXPECT_EQ(back.epochs[0].train_loss, record.train_loss);
  EXPECT_EQ(back.epochs[0].mean_ratio, record.mean_ratio);
}

TEST(TrainerCheckpoint, RejectsCorruptAndTruncatedBlobs) {
  TrainerCheckpoint ckpt;
  ckpt.state.params = {1.0f, 2.0f, 3.0f};
  ckpt.rng_states.push_back({1, 2, 3, 4, 5, 6});
  const std::vector<std::uint8_t> blob = frame_state(ckpt);
  ASSERT_NO_THROW((void)parse_state<TrainerCheckpoint>(blob));

  for (std::size_t at : {std::size_t{0}, std::size_t{5}, blob.size() / 2, blob.size() - 1}) {
    std::vector<std::uint8_t> damaged = blob;
    damaged[at] ^= 0x10;
    EXPECT_THROW((void)parse_state<TrainerCheckpoint>(damaged), std::runtime_error) << at;
  }
  const std::vector<std::uint8_t> truncated(blob.begin(), blob.begin() + blob.size() / 2);
  EXPECT_THROW((void)parse_state<TrainerCheckpoint>(truncated), std::runtime_error);
  EXPECT_THROW((void)parse_state<TrainerCheckpoint>({}), std::runtime_error);
}

TEST(TrainerCheckpoint, RejectsMismatchedShapes) {
  const nn::StepLrSchedule lr({{0, 0.05f}});
  TrainerCheckpoint wrong;
  wrong.state.params = {1.0f};  // wrong parameter count
  wrong.rng_states.resize(3, {1, 2, 3, 4, 5, 6});
  util::Untrusted<TrainerCheckpoint> parsed = util::untrusted(std::move(wrong));
  DistributedTrainer trainer = make_checkpoint_trainer();
  CheckpointOptions resume;
  resume.resume = &parsed;
  EXPECT_THROW(trainer.train(ef_fft_factory(), FixedTheta(0.5), lr, resume),
               std::invalid_argument);
}

/// A CRC-valid blob of a real epoch-2 checkpoint, with `damage` applied to
/// its state before it is framed.
std::vector<std::uint8_t> damaged_checkpoint(void (*damage)(ReplicaState&)) {
  DistributedTrainer trainer = make_checkpoint_trainer();
  std::vector<std::uint8_t> blob;
  CheckpointOptions capture;
  capture.every_epochs = 2;
  capture.sink = [&](const TrainerCheckpoint& ckpt) {
    if (ckpt.state.iteration != 2) return;
    TrainerCheckpoint copy = ckpt;
    damage(copy.state);
    blob = frame_state(copy);
  };
  trainer.train(ef_fft_factory(), FixedTheta(0.5), nn::StepLrSchedule({{0, 0.05f}}), capture);
  return blob;
}

/// Resuming from `blob` must throw std::invalid_argument before the
/// checkpoint touches the model: it still holds the shared initialization.
void expect_rejected_before_any_step(const std::vector<std::uint8_t>& blob) {
  ASSERT_FALSE(blob.empty());
  util::Untrusted<TrainerCheckpoint> parsed = parse_state<TrainerCheckpoint>(blob);
  DistributedTrainer trainer = make_checkpoint_trainer();
  std::vector<float> initial(trainer.model().param_count());
  trainer.model().copy_params(initial);
  CheckpointOptions resume;
  resume.resume = &parsed;
  EXPECT_THROW(trainer.train(ef_fft_factory(), FixedTheta(0.5),
                             nn::StepLrSchedule({{0, 0.05f}}), resume),
               std::invalid_argument);
  std::vector<float> after(initial.size());
  trainer.model().copy_params(after);
  EXPECT_EQ(after, initial);
}

TEST(TrainerCheckpoint, RejectsMismatchedMomentumBeforeAnyStep) {
  // Right parameter count, 1-element momentum buffers: without the shape
  // check the first SGD step writes past the end of every buffer.
  expect_rejected_before_any_step(damaged_checkpoint([](ReplicaState& state) {
    ASSERT_FALSE(state.velocity.empty());
    for (std::vector<float>& buffer : state.velocity) buffer.resize(1);
  }));
}

TEST(TrainerCheckpoint, RejectsMismatchedResidualBeforeAnyStep) {
  // A residual of the wrong length would be silently zeroed by the next
  // compress, breaking the bit-for-bit resume without any error.
  expect_rejected_before_any_step(damaged_checkpoint([](ReplicaState& state) {
    ASSERT_EQ(state.residuals.size(), 3u);
    state.residuals[1].resize(state.residuals[1].size() - 1);
  }));
}

}  // namespace
}  // namespace fftgrad::core
