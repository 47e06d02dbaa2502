// Recovery suite (ctest label `recovery`): the elastic-recovery subsystem
// end to end.
//
// Layers under test:
//   * RecoveryController — the per-monitor action mapping (rollback on
//     non-finite signals, lossless-codec fallback after a ratio-collapse
//     streak, theta relaxation on residual growth), the
//     iterations-to-recover bookkeeping, and the decision-state blob a
//     rejoiner loads so it takes identical remedies from then on;
//   * CheckpointStore — atomic temp+rename writes, bounded retention, and
//     the kill-mid-write regression (a torn newest file must never shadow
//     the previous valid checkpoint);
//   * the rejoin blob — a CRC-valid blob whose momentum, residual or
//     snapshot does not fit the receiving replica is rejected at release,
//     before anything is installed;
//   * ErrorFeedbackCompressor::recredit_undelivered — the degraded-mode
//     residual fix: an excluded own contribution is re-credited, not aged
//     out;
//   * the ledger `remediation` row (writer -> reader -> validator) and the
//     acceptance-criterion reconciliation of `state_transfer` rows against
//     the network model (exact to 1e-6 on a lossless plan);
//   * whole-cluster integration — a poisoned gradient heals via rollback, a
//     collapsed ratio falls back to the lossless codec on every rank at the
//     same iteration, and an armed-but-idle controller leaves the trained
//     weights bit-identical to a run without it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fftgrad/comm/fault_injection.h"
#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/checkpoint_store.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/recovery.h"
#include "fftgrad/core/replica.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/telemetry/ledger.h"

namespace fftgrad::core {
namespace {

using telemetry::RunLedger;

RecoveryPolicy enabled_policy() {
  RecoveryPolicy policy;
  policy.enabled = true;
  return policy;
}

// ---------------------------------------------------------------------------
// RecoveryController: per-monitor action mapping

TEST(RecoveryController_, DisabledPolicyIgnoresEverySignal) {
  RecoveryController controller{RecoveryPolicy{}};
  RecoverySignals everything{true, true, true, true};
  for (std::uint64_t iter = 0; iter < 5; ++iter) {
    EXPECT_TRUE(controller.step(iter, everything).empty()) << iter;
  }
  EXPECT_EQ(controller.remediations_total(), 0u);
  EXPECT_FALSE(controller.fallback_active());
  EXPECT_TRUE(controller.finish(5).empty());
}

TEST(RecoveryController_, NonfiniteSignalOpensOneRollbackUntilItClears) {
  RecoveryController controller{enabled_policy()};
  RecoverySignals nan_grad;
  nan_grad.nan_gradient = true;

  const auto first = controller.step(3, nan_grad);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], RemedyAction::kRollback);
  // Still failing: the pending rollback suppresses a duplicate.
  EXPECT_TRUE(controller.step(4, nan_grad).empty());
  EXPECT_TRUE(controller.drain_closed().empty());
  // Cleared: the episode closes with the iterations it took to recover.
  EXPECT_TRUE(controller.step(5, RecoverySignals{}).empty());
  const auto closed = controller.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].iteration, 3u);
  EXPECT_EQ(closed[0].cause, "nan_gradient");
  EXPECT_EQ(closed[0].action, "rollback");
  EXPECT_EQ(closed[0].iterations_to_recover, 2u);
  EXPECT_TRUE(closed[0].recovered);
  EXPECT_EQ(controller.remediations_total(), 1u);
  // A later relapse opens a fresh episode.
  RecoverySignals bad_loss;
  bad_loss.nonfinite_loss = true;
  const auto again = controller.step(8, bad_loss);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], RemedyAction::kRollback);
  EXPECT_EQ(controller.remediations_total(), 2u);
}

TEST(RecoveryController_, RatioCollapseNeedsTheConfiguredStreak) {
  RecoveryPolicy policy = enabled_policy();
  policy.ratio_collapse_streak = 3;
  RecoveryController controller{policy};
  RecoverySignals collapse;
  collapse.ratio_collapse = true;

  EXPECT_TRUE(controller.step(0, collapse).empty());
  // An intervening healthy iteration resets the streak.
  EXPECT_TRUE(controller.step(1, RecoverySignals{}).empty());
  EXPECT_TRUE(controller.step(2, collapse).empty());
  EXPECT_TRUE(controller.step(3, collapse).empty());
  const auto actions = controller.step(4, collapse);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0], RemedyAction::kCodecFallback);
  EXPECT_TRUE(controller.fallback_active());
  // The fallback ends the collapse by construction, so the episode closes
  // on the next step even though the (stale) flag is still raised, and no
  // second fallback ever fires.
  EXPECT_TRUE(controller.step(5, collapse).empty());
  const auto closed = controller.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].cause, "ratio_collapse");
  EXPECT_EQ(closed[0].action, "codec_fallback");
  EXPECT_EQ(closed[0].iterations_to_recover, 1u);
  EXPECT_TRUE(closed[0].recovered);
}

TEST(RecoveryController_, ResidualGrowthRelaxesTheta) {
  RecoveryController controller{enabled_policy()};
  RecoverySignals growth;
  growth.residual_growth = true;
  const auto actions = controller.step(7, growth);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0], RemedyAction::kThetaRelax);
  controller.charge(util::SimSeconds(0.25));
  EXPECT_TRUE(controller.step(8, growth).empty());  // pending: no duplicate
  EXPECT_TRUE(controller.step(9, RecoverySignals{}).empty());
  const auto closed = controller.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].cause, "residual_growth");
  EXPECT_EQ(closed[0].action, "theta_relax");
  EXPECT_EQ(closed[0].cost_s, util::SimSeconds(0.25));
}

TEST(RecoveryController_, FinishReportsUnrecoveredPendings) {
  RecoveryController controller{enabled_policy()};
  RecoverySignals nan_grad;
  nan_grad.nan_gradient = true;
  ASSERT_EQ(controller.step(5, nan_grad).size(), 1u);
  const auto rows = controller.finish(12);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].iteration, 5u);
  EXPECT_FALSE(rows[0].recovered);
  EXPECT_EQ(rows[0].iterations_to_recover, 7u);
  // finish() closed everything: a second call reports nothing.
  EXPECT_TRUE(controller.finish(12).empty());
}

TEST(RecoveryController_, DecisionStateMakesACloneActIdentically) {
  RecoveryPolicy policy = enabled_policy();
  policy.ratio_collapse_streak = 3;
  RecoveryController donor{policy};
  // A half-built streak and an open theta-relax episode: exactly the state
  // a mid-run rejoiner must inherit to stay in lockstep.
  RecoverySignals mixed;
  mixed.ratio_collapse = true;
  mixed.residual_growth = true;
  ASSERT_EQ(donor.step(0, mixed).size(), 1u);  // theta relax opens
  ASSERT_TRUE(donor.step(1, mixed).empty());   // streak at 2, nothing new

  RecoveryController rejoiner{policy};
  rejoiner.load_decision_state(donor.save_decision_state());
  for (std::uint64_t iter = 2; iter < 6; ++iter) {
    const RecoverySignals signals = iter < 3 ? mixed : RecoverySignals{};
    EXPECT_EQ(donor.step(iter, signals), rejoiner.step(iter, signals)) << iter;
    EXPECT_EQ(donor.fallback_active(), rejoiner.fallback_active()) << iter;
  }
  // Both close the same episodes with the same recovery spans.
  const auto a = donor.drain_closed();
  const auto b = rejoiner.drain_closed();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].iteration, b[i].iteration);
    EXPECT_EQ(a[i].cause, b[i].cause);
    EXPECT_EQ(a[i].action, b[i].action);
    EXPECT_EQ(a[i].iterations_to_recover, b[i].iterations_to_recover);
  }
}

TEST(RecoveryController_, RejectsMalformedDecisionState) {
  RecoveryController donor{enabled_policy()};
  RecoverySignals growth;
  growth.residual_growth = true;
  ASSERT_EQ(donor.step(2, growth).size(), 1u);
  const std::vector<std::uint8_t> blob = donor.save_decision_state();

  RecoveryController sink{enabled_policy()};
  const std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 1);
  EXPECT_THROW(sink.load_decision_state(truncated), std::runtime_error);
  std::vector<std::uint8_t> bad_cause = blob;
  // The cause byte of the first pending entry sits right after the u64
  // streak, the u8 fallback flag, the u64 count, and the entry's u64 iter.
  bad_cause[8 + 1 + 8 + 8] = 0xEE;
  EXPECT_THROW(sink.load_decision_state(bad_cause), std::runtime_error);
  // The valid blob still loads after the failures above.
  EXPECT_NO_THROW(sink.load_decision_state(blob));
}

// ---------------------------------------------------------------------------
// CheckpointStore: atomic writes and retention

namespace fs = std::filesystem;

std::string fresh_store_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "fftgrad_ckpt_" + tag;
  fs::remove_all(dir);
  return dir;
}

TrainerCheckpoint checkpoint_at(std::uint64_t epoch) {
  TrainerCheckpoint ckpt;
  ckpt.state.iteration = epoch;
  ckpt.state.params = {static_cast<float>(epoch), 2.0f, 3.0f};
  ckpt.rng_states.push_back({epoch, 2, 3, 4, 5, 6});
  return ckpt;
}

/// The store tests' release of what latest() parsed: the three-parameter,
/// one-rank checkpoint checkpoint_at() writes.
TrainerCheckpoint released(std::optional<util::Untrusted<TrainerCheckpoint>> latest) {
  if (!latest) throw std::runtime_error("no valid checkpoint in the store");
  return std::move(*latest).release(
      [](const TrainerCheckpoint& ckpt) {
        return ckpt.state.params.size() == 3 && ckpt.rng_states.size() == 1;
      },
      "stored checkpoint");
}

TEST(CheckpointStore_, RetainsTheNewestKAndLatestWins) {
  CheckpointStore store(fresh_store_dir("retain"), 3);
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) store.save(checkpoint_at(epoch));
  const std::vector<std::string> names = store.files();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "ckpt-00000005.fgck");
  EXPECT_EQ(names[2], "ckpt-00000003.fgck");
  auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  const TrainerCheckpoint newest = released(std::move(latest));
  EXPECT_EQ(newest.state.iteration, 5u);
  EXPECT_EQ(newest.state.params[0], 5.0f);
}

TEST(CheckpointStore_, ZeroKeepRetainsEverything) {
  CheckpointStore store(fresh_store_dir("unbounded"), 0);
  for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) store.save(checkpoint_at(epoch));
  EXPECT_EQ(store.files().size(), 6u);
}

TEST(CheckpointStore_, KillMidWriteNeverShadowsThePreviousCheckpoint) {
  const std::string dir = fresh_store_dir("torn");
  CheckpointStore store(dir, 3);
  store.save(checkpoint_at(1));
  store.save(checkpoint_at(2));

  // A process killed *before* the rename leaves only a stray .tmp, which
  // the store neither lists nor resumes from.
  { std::ofstream(dir + "/ckpt-00000003.fgck.tmp") << "half-written"; }
  EXPECT_EQ(store.files().size(), 2u);
  ASSERT_TRUE(store.latest().has_value());
  EXPECT_EQ(released(store.latest()).state.iteration, 2u);

  // The worst case a non-atomic writer could produce — a torn blob under
  // the final name — must be skipped in favor of the previous valid file.
  const std::vector<std::uint8_t> good = frame_state(checkpoint_at(3));
  {
    std::ofstream torn(dir + "/ckpt-00000003.fgck", std::ios::binary);
    torn.write(reinterpret_cast<const char*>(good.data()),
               static_cast<std::streamsize>(good.size() / 2));
  }
  ASSERT_EQ(store.files().size(), 3u);
  auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(released(std::move(latest)).state.iteration, 2u);

  // Once a complete epoch-3 checkpoint lands (atomic save), it wins.
  store.save(checkpoint_at(3));
  EXPECT_EQ(released(store.latest()).state.iteration, 3u);
}

// ---------------------------------------------------------------------------
// Rejoin blob: the shape check before anything is installed

/// A rank that has taken `steps` BSP steps alone, with an error-feedback
/// codec: its momentum and residual are populated.
struct SteppedRank {
  nn::Network model;
  Replica replica;
  util::Rng batches = batch_stream(3, 0);
  std::vector<std::unique_ptr<GradientCompressor>> codecs;

  SteppedRank(const nn::SyntheticDataset& data, std::size_t steps)
      : model(make_model()), replica(model, 0.9f) {
    codecs.push_back(std::make_unique<ErrorFeedbackCompressor>(std::make_unique<FftCompressor>(
        FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10})));
    for (std::size_t i = 0; i < steps; ++i) {
      (void)replica.forward(data.sample(8, batches));
      replica.backward();
      const std::optional<wire::WireFrame> frames[] = {
          wire::WireFrame{replica.compress(*codecs[0], [](const Packet&) {}), {}}};
      EXPECT_EQ(replica.average(*codecs[0], frames), 0u);
      replica.apply(0.05f);
    }
  }

  static nn::Network make_model() {
    util::Rng rng(31);
    return nn::models::make_mlp(8, 16, 2, 3, rng);
  }

  std::vector<float> params() {
    std::vector<float> out(replica.size());
    model.copy_params(out);
    return out;
  }
};

/// The donor's blob with `damage` applied before framing must parse (the
/// CRC is valid) and be rejected at release, leaving the receiver's
/// parameters, momentum and residual untouched.
void expect_rejoin_blob_rejected(void (*damage)(RejoinBlob&)) {
  const nn::SyntheticDataset data({8}, 3, 19);
  SteppedRank donor(data, 3);
  SteppedRank receiver(data, 1);
  RejoinBlob blob;
  blob.state.capture(3, donor.replica, donor.codecs);
  blob.snapshot = blob.state;
  damage(blob);
  util::Untrusted<RejoinBlob> parsed = parse_state<RejoinBlob>(frame_state(blob));

  const std::vector<float> params = receiver.params();
  const std::vector<std::vector<float>> velocity = receiver.replica.optimizer().velocity();
  const auto* ef = dynamic_cast<const ErrorFeedbackCompressor*>(receiver.codecs[0].get());
  const std::vector<float> residual(ef->residual().begin(), ef->residual().end());
  EXPECT_THROW((void)std::move(parsed).release(
                   [&](const RejoinBlob& b) { return b.fits(receiver.replica, receiver.codecs); },
                   "rejoin state"),
               std::invalid_argument);
  EXPECT_EQ(receiver.params(), params);
  EXPECT_EQ(receiver.replica.optimizer().velocity(), velocity);
  EXPECT_TRUE(std::equal(residual.begin(), residual.end(), ef->residual().begin(),
                         ef->residual().end()));
}

TEST(RejoinBlob_, AnIntactBlobFitsAndInstallsTheDonorsState) {
  const nn::SyntheticDataset data({8}, 3, 19);
  SteppedRank donor(data, 3);
  SteppedRank receiver(data, 1);
  RejoinBlob blob;
  blob.state.capture(3, donor.replica, donor.codecs);
  blob.theta = 0.5;
  blob.snapshot = blob.state;
  const RejoinBlob back = parse_state<RejoinBlob>(frame_state(blob))
                              .release(
                                  [&](const RejoinBlob& b) {
                                    return b.fits(receiver.replica, receiver.codecs);
                                  },
                                  "rejoin state");
  back.state.install(receiver.replica, receiver.codecs);
  EXPECT_EQ(receiver.params(), donor.params());
  EXPECT_EQ(receiver.replica.optimizer().velocity(), donor.replica.optimizer().velocity());
  ASSERT_TRUE(back.snapshot.has_value());
  EXPECT_EQ(back.snapshot->params, blob.state.params);
}

TEST(RejoinBlob_, RejectsMismatchedMomentumBeforeInstalling) {
  expect_rejoin_blob_rejected([](RejoinBlob& blob) {
    for (std::vector<float>& buffer : blob.state.velocity) buffer.resize(1);
  });
}

TEST(RejoinBlob_, RejectsMismatchedResidualBeforeInstalling) {
  expect_rejoin_blob_rejected([](RejoinBlob& blob) {
    ASSERT_EQ(blob.state.residuals.size(), 1u);
    blob.state.residuals[0].pop_back();
  });
}

TEST(RejoinBlob_, RejectsAMismatchedSnapshotBeforeInstalling) {
  expect_rejoin_blob_rejected([](RejoinBlob& blob) { blob.snapshot->velocity.pop_back(); });
}

// ---------------------------------------------------------------------------
// Error-feedback re-credit (degraded-mode residual fix)

TEST(ErrorFeedbackRecredit, ExcludedOwnContributionReturnsToTheResidual) {
  ErrorFeedbackCompressor codec(std::make_unique<FftCompressor>(
      FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10}));
  std::vector<float> gradient(64);
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    gradient[i] = std::sin(static_cast<float>(i) * 0.37f) * 0.1f;
  }
  // Round 1 establishes a non-trivial residual; round 2's corrected
  // gradient is what the peers would have seen had the packet arrived.
  (void)codec.compress(gradient);
  std::vector<float> corrected(gradient.size());
  const std::span<const float> residual = codec.residual();
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    corrected[i] = gradient[i] + residual[i];
  }
  const Packet packet = codec.compress(gradient);
  // The cluster excluded this rank's own block: re-crediting the delivered
  // part must leave the residual carrying the full corrected gradient, so
  // nothing the peers have not seen is ever aged out.
  codec.recredit_undelivered(packet);
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    EXPECT_NEAR(codec.residual()[i], corrected[i], 1e-5f) << i;
  }
}

TEST(ErrorFeedbackRecredit, RejectsAMismatchedPacket) {
  ErrorFeedbackCompressor codec(std::make_unique<NoopCompressor>());
  std::vector<float> gradient(16, 0.5f);
  (void)codec.compress(gradient);
  Packet wrong;
  wrong.elements = 8;
  wrong.bytes.assign(32, 0);
  EXPECT_THROW(codec.recredit_undelivered(wrong), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Ledger remediation rows and state-transfer reconciliation

std::string temp_ledger_path(const char* tag) {
  return ::testing::TempDir() + "fftgrad_recovery_" + tag + ".jsonl";
}

/// Open the global ledger to a fresh temp file with aborts disabled, and
/// close + restore on scope exit (mirrors test_ledger.cpp's session).
class LedgerSession {
 public:
  explicit LedgerSession(const char* tag) : path_(temp_ledger_path(tag)) {
    std::remove(path_.c_str());
    RunLedger& ledger = RunLedger::global();
    ledger.set_abort_on_alert(false);
    EXPECT_TRUE(ledger.open(path_));
  }
  ~LedgerSession() { RunLedger::global().close(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(RecoveryLedger, RemediationRowRoundTripsThroughTheReader) {
  LedgerSession session("remrow");
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "noop", 1, 1, 0, {}, 0.0});
  ledger.end_iteration({});
  ledger.record_remediation(
      {4, "ratio_collapse", "codec_fallback", util::SimSeconds(0.125), 2, true});
  ledger.record_remediation(
      {9, "nan_gradient", "rollback", util::SimSeconds(0.0), 5, false});
  ledger.end_run();
  RunLedger::global().close();

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(telemetry::validate_ledger(runs).empty());
  ASSERT_EQ(runs[0].remediations.size(), 2u);
  const telemetry::JsonValue& row = runs[0].remediations[0];
  EXPECT_EQ(row.number_or("iter", -1.0), 4.0);
  EXPECT_EQ(row.string_or("cause", ""), "ratio_collapse");
  EXPECT_EQ(row.string_or("action", ""), "codec_fallback");
  EXPECT_DOUBLE_EQ(row.number_or("cost_s", -1.0), 0.125);
  EXPECT_EQ(row.number_or("iterations_to_recover", -1.0), 2.0);
  ASSERT_NE(row.find("recovered"), nullptr);
  EXPECT_TRUE(row.find("recovered")->boolean);
  EXPECT_FALSE(runs[0].remediations[1].find("recovered")->boolean);
  // The summary aggregates the per-action counts.
  const telemetry::JsonValue* counts = runs[0].summary.find("remediations");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->number_or("codec_fallback", 0.0), 1.0);
  EXPECT_EQ(counts->number_or("rollback", 0.0), 1.0);
}

std::function<nn::Network()> mlp_factory() {
  return [] {
    util::Rng rng(999);
    return nn::models::make_mlp(8, 16, 2, 3, rng);
  };
}

ClusterTrainConfig small_config(std::size_t ranks, std::size_t iterations) {
  ClusterTrainConfig cfg;
  cfg.ranks = ranks;
  cfg.iterations = iterations;
  cfg.seed = 21;
  return cfg;
}

std::function<std::unique_ptr<GradientCompressor>(std::size_t)> noop_codec() {
  return [](std::size_t) { return std::make_unique<NoopCompressor>(); };
}

TEST(RecoveryLedger, LosslessStateTransferReconcilesExactly) {
  // ISSUE acceptance (c): on a lossless plan the `state_transfer` row's
  // charged cost must equal the NetworkModel prediction to 1e-6.
  LedgerSession session("transfer");
  comm::FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_op = 4, .rejoin_at_op = 8});
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);
  nn::SyntheticDataset data({8}, 3, 31);
  const ClusterTrainResult result =
      cluster_train(cluster, small_config(4, 12), mlp_factory(), noop_codec(), data);
  RunLedger::global().close();
  EXPECT_EQ(result.rejoined_ranks, 1u);
  EXPECT_EQ(result.crashed_ranks, 0u);
  EXPECT_TRUE(result.replicas_identical);

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(telemetry::validate_ledger(runs).empty());
  std::size_t transfers = 0;
  for (const telemetry::JsonValue& iteration : runs[0].iterations) {
    const telemetry::JsonValue* collectives = iteration.find("collectives");
    if (collectives == nullptr) continue;
    for (const telemetry::JsonValue& op : collectives->array) {
      if (op.string_or("kind", "") != "state_transfer") continue;
      ++transfers;
      const double predicted = op.number_or("predicted_s", -1.0);
      const double charged = op.number_or("charged_s", -2.0);
      EXPECT_GT(predicted, 0.0);
      EXPECT_NEAR(charged, predicted, 1e-6);
      EXPECT_EQ(op.number_or("failed", -1.0), 0.0);
    }
  }
  EXPECT_EQ(transfers, 1u);  // one rejoiner, delivered first try
}

// ---------------------------------------------------------------------------
// Whole-cluster remediation integration

/// Noop codec that emits one NaN-filled packet at a chosen compress call —
/// every rank decodes it, so the whole cluster's parameters are poisoned at
/// the same iteration and the rollback remedy has something real to heal.
class PoisonOnceCompressor : public NoopCompressor {
 public:
  explicit PoisonOnceCompressor(std::size_t poison_call) : poison_call_(poison_call) {}
  Packet compress(std::span<const float> gradient) override {
    Packet packet = NoopCompressor::compress(gradient);
    if (calls_++ == poison_call_) {
      const float nan = std::numeric_limits<float>::quiet_NaN();
      for (std::size_t i = 0; i + sizeof(float) <= packet.bytes.size(); i += sizeof(float)) {
        std::memcpy(packet.bytes.data() + i, &nan, sizeof(float));
      }
    }
    return packet;
  }

 private:
  std::size_t poison_call_;
  std::size_t calls_ = 0;
};

/// Noop codec whose wire ratio reads as collapsed (bytes padded 4x), for
/// driving the codec-fallback path; decompress ignores the padding.
class PaddedCompressor : public NoopCompressor {
 public:
  std::string name() const override { return "padded"; }
  Packet compress(std::span<const float> gradient) override {
    Packet packet = NoopCompressor::compress(gradient);
    packet.bytes.resize(packet.bytes.size() * 4, 0);
    return packet;
  }
  void decompress(const Packet& packet, std::span<float> out) override {
    Packet trimmed;
    trimmed.elements = packet.elements;
    trimmed.bytes.assign(packet.bytes.begin(),
                         packet.bytes.begin() + static_cast<std::ptrdiff_t>(
                                                    packet.elements * sizeof(float)));
    NoopCompressor::decompress(trimmed, out);
  }
};

TEST(RecoveryCluster, PoisonedGradientRollsBackAndRecovers) {
  LedgerSession session("rollback");  // non-finite monitors fire: aborts off
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  ClusterTrainConfig cfg = small_config(4, 12);
  cfg.recovery = enabled_policy();
  cfg.recovery.snapshot_every = 4;
  nn::SyntheticDataset data({8}, 3, 35);
  const auto codec = [](std::size_t rank) -> std::unique_ptr<GradientCompressor> {
    if (rank == 1) return std::make_unique<PoisonOnceCompressor>(5);
    return std::make_unique<NoopCompressor>();
  };
  const ClusterTrainResult result =
      cluster_train(cluster, cfg, mlp_factory(), codec, data);
  RunLedger::global().close();

  EXPECT_EQ(result.remediations, 1u);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_TRUE(std::isfinite(result.mean_loss_last_iteration));
  for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p));

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].remediations.size(), 1u);
  const telemetry::JsonValue& row = runs[0].remediations[0];
  EXPECT_EQ(row.string_or("cause", ""), "nan_gradient");
  EXPECT_EQ(row.string_or("action", ""), "rollback");
  ASSERT_NE(row.find("recovered"), nullptr);
  EXPECT_TRUE(row.find("recovered")->boolean);
}

TEST(RecoveryCluster, RejoinAfterCodecFallbackTakesThePreFallbackSnapshot) {
  // The fallback to the lossless codec fires at the end of iteration 2 on
  // every rank; the donor's rollback snapshot, taken at the top of that
  // iteration, still carries an error-feedback residual. Rank 2 crashes
  // after the fallback and restarts its codec from the factory, so the
  // snapshot fits it and the rank rejoins bit-identical.
  comm::FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_op = 6, .rejoin_at_op = 8});
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);
  ClusterTrainConfig cfg = small_config(4, 10);
  cfg.recovery = enabled_policy();
  cfg.recovery.ratio_collapse_streak = 3;
  cfg.recovery.snapshot_every = 2;
  nn::SyntheticDataset data({8}, 3, 37);
  const ClusterTrainResult result = cluster_train(
      cluster, cfg, mlp_factory(),
      [](std::size_t) {
        return std::make_unique<ErrorFeedbackCompressor>(std::make_unique<PaddedCompressor>());
      },
      data);
  EXPECT_EQ(result.rejoined_ranks, 1u);
  EXPECT_EQ(result.crashed_ranks, 0u);
  EXPECT_EQ(result.remediations, 1u);
  EXPECT_TRUE(result.replicas_identical);
}

TEST(RecoveryCluster, RatioCollapseFallsBackToTheLosslessCodec) {
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  ClusterTrainConfig cfg = small_config(4, 10);
  cfg.recovery = enabled_policy();
  cfg.recovery.ratio_collapse_streak = 2;
  nn::SyntheticDataset data({8}, 3, 36);
  const ClusterTrainResult result = cluster_train(
      cluster, cfg, mlp_factory(),
      [](std::size_t) { return std::make_unique<PaddedCompressor>(); }, data);
  // Every rank swapped to the lossless codec at the same iteration, so the
  // run completes with bit-identical replicas and exactly one remediation.
  EXPECT_EQ(result.remediations, 1u);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_TRUE(std::isfinite(result.mean_loss_last_iteration));
}

TEST(RecoveryCluster, ArmedButIdleControllerLeavesWeightsBitIdentical) {
  // The recovery layer's only op-stream change is the flag allreduce, which
  // never touches model math: an armed controller that takes no action must
  // land on the exact weights of a run with recovery disabled.
  const auto run_with = [](bool enabled) {
    comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
    ClusterTrainConfig cfg = small_config(4, 10);
    cfg.recovery.enabled = enabled;
    nn::SyntheticDataset data({8}, 3, 37);
    return cluster_train(cluster, cfg, mlp_factory(), noop_codec(), data);
  };
  const ClusterTrainResult armed = run_with(true);
  const ClusterTrainResult plain = run_with(false);
  EXPECT_EQ(armed.remediations, 0u);
  ASSERT_EQ(armed.final_params.size(), plain.final_params.size());
  EXPECT_EQ(0, std::memcmp(armed.final_params.data(), plain.final_params.data(),
                           plain.final_params.size() * sizeof(float)));
}

}  // namespace
}  // namespace fftgrad::core
