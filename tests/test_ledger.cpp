// Run-ledger tests: JSONL schema of real instrumented runs, exact
// model-vs-charged reconciliation on lossless clusters, expected-cost
// reconciliation under a 5% drop plan, one dedicated firing test per
// health monitor, the reader/validator, and the zero-overhead disabled
// path (counted allocations + zero file writes).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fftgrad/comm/fault_injection.h"
#include "fftgrad/comm/network_model.h"
#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/telemetry/ledger.h"

// ---------------------------------------------------------------------------
// Global allocation counter for the zero-overhead test. Overriding the
// global operator new/delete pair is the one reliable way to observe "this
// call path allocates nothing" without a custom allocator.

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Every pointer these receive came from the malloc-backed operator new
// above; GCC cannot see that pairing and warns about free() on new'd
// memory, so the diagnostic is suppressed for the definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace fftgrad {
namespace {

using telemetry::LedgerRun;
using telemetry::RunLedger;

std::string temp_ledger_path(const char* tag) {
  return ::testing::TempDir() + "fftgrad_ledger_" + tag + ".jsonl";
}

/// Open the global ledger to a fresh temp file with aborts disabled (so a
/// firing monitor shows up as a failed EXPECT, not a dead process), and
/// close + restore on scope exit.
class LedgerSession {
 public:
  explicit LedgerSession(const char* tag,
                         telemetry::LedgerTolerances tolerances = {})
      : path_(temp_ledger_path(tag)) {
    std::remove(path_.c_str());
    RunLedger& ledger = RunLedger::global();
    ledger.set_tolerances(tolerances);
    ledger.set_abort_on_alert(false);
    EXPECT_TRUE(ledger.open(path_));
  }
  ~LedgerSession() {
    RunLedger::global().close();
    RunLedger::global().set_tolerances({});
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::function<nn::Network()> mlp_factory(std::size_t hidden = 16) {
  return [hidden] {
    util::Rng rng(321);
    return nn::models::make_mlp(8, hidden, 2, 3, rng);
  };
}

core::ClusterTrainResult run_cluster(comm::SimCluster& cluster, std::size_t iterations,
                                     bool fft_codec = false, std::size_t hidden = 16) {
  core::ClusterTrainConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = iterations;
  cfg.seed = 17;
  nn::SyntheticDataset data({8}, 3, 23);
  return core::cluster_train(
      cluster, cfg, mlp_factory(hidden),
      [fft_codec](std::size_t) -> std::unique_ptr<core::GradientCompressor> {
        if (fft_codec) {
          return std::make_unique<core::FftCompressor>(
              core::FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
        }
        return std::make_unique<core::NoopCompressor>();
      },
      data);
}

// ---------------------------------------------------------------------------
// Reconciliation on real runs.

TEST(LedgerReconcile, LosslessClusterRunReconcilesExactly) {
  LedgerSession session("lossless");
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  run_cluster(cluster, 8);
  RunLedger::global().close();

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(telemetry::validate_ledger(runs).empty());
  ASSERT_EQ(runs[0].iterations.size(), 8u);
  EXPECT_TRUE(runs[0].alerts.empty());

  std::size_t collectives = 0;
  for (const auto& row : runs[0].iterations) {
    const auto* list = row.find("collectives");
    ASSERT_NE(list, nullptr);
    for (const auto& c : list->array) {
      const double predicted = c.number_or("predicted_s", -1.0);
      const double charged = c.number_or("charged_s", -2.0);
      ASSERT_GT(predicted, 0.0);
      // Acceptance: per-collective relative error <= 1e-6 on a lossless run
      // (here it is exact — same formula, same inputs).
      EXPECT_LE(std::fabs(charged - predicted) / predicted, 1e-6);
      EXPECT_EQ(c.number_or("retries", -1.0), 0.0);
      EXPECT_EQ(c.number_or("failed", -1.0), 0.0);
      ++collectives;
    }
  }
  EXPECT_EQ(collectives, 8u);  // one allgather row per iteration
  // The summary row aggregates the same reconciliation.
  ASSERT_EQ(runs[0].summary.kind, telemetry::JsonValue::Kind::kObject);
  const auto* kinds = runs[0].summary.find("collectives");
  ASSERT_NE(kinds, nullptr);
  ASSERT_NE(kinds->find("allgather"), nullptr);
}

TEST(LedgerReconcile, DropPlanStaysWithinExpectedCostTolerance) {
  LedgerSession session("droplan");
  comm::FaultPlan plan;
  plan.seed = 99;
  plan.drop_prob = 0.05;
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);
  // A wide MLP (~275KB gradient) keeps the base allgather time dominant
  // over retransmission backoff, as at real model sizes; on a toy-sized
  // gradient the sampled backoff noise alone would swamp the expectation.
  run_cluster(cluster, 40, /*fft_codec=*/false, /*hidden=*/256);
  RunLedger::global().close();

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(telemetry::validate_ledger(runs).empty());
  EXPECT_NEAR(runs[0].manifest.number_or("fault_rate", 0.0), 0.05, 1e-12);

  // The run must actually have exercised the retry path...
  double retries = 0.0;
  double predicted = 0.0;
  double charged = 0.0;
  for (const auto& row : runs[0].iterations) {
    for (const auto& c : row.find("collectives")->array) {
      retries += c.number_or("retries", 0.0);
      predicted += c.number_or("predicted_s", 0.0);
      charged += c.number_or("charged_s", 0.0);
    }
  }
  EXPECT_GT(retries, 0.0);
  EXPECT_NE(predicted, charged);  // sampled recovery != expectation
  // ...yet the RetryPolicy expected-cost terms keep the totals aligned and
  // the rolling drift monitor quiet at the default tolerance.
  EXPECT_LE(std::fabs(charged - predicted) / predicted, 0.25);
  EXPECT_EQ(RunLedger::global().alerts("model_drift"), 0u);
  for (const auto& alert : runs[0].alerts) {
    ADD_FAILURE() << "unexpected alert: " << alert.string_or("monitor", "?");
  }
}

TEST(LedgerReconcile, SequentialTrainerReconcilesAndCarriesPaperModel) {
  LedgerSession session("seqtrainer");
  util::Rng rng(7);
  core::TrainerConfig cfg;
  cfg.ranks = 3;
  cfg.epochs = 2;
  cfg.iters_per_epoch = 4;
  cfg.batch_per_rank = 8;
  core::DistributedTrainer trainer(nn::models::make_mlp(8, 16, 2, 3, rng),
                                   nn::SyntheticDataset({8}, 3, 29), cfg);
  trainer.train([](std::size_t) { return std::make_unique<core::NoopCompressor>(); },
                core::FixedTheta(0.0), nn::StepLrSchedule({{0, 0.05f}}));
  RunLedger::global().close();

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(telemetry::validate_ledger(runs).empty());
  EXPECT_EQ(runs[0].manifest.string_or("trainer", ""), "distributed_trainer");
  ASSERT_EQ(runs[0].iterations.size(), 8u);
  for (const auto& row : runs[0].iterations) {
    for (const auto& c : row.find("collectives")->array) {
      EXPECT_DOUBLE_EQ(c.number_or("predicted_s", -1.0), c.number_or("charged_s", -2.0));
      if (c.string_or("kind", "") == "allgather") {
        EXPECT_GT(c.number_or("paper_model_s", 0.0), 0.0);  // Eq. 2 attached
      }
    }
    // Per-layer round-trip stats decompose the flat gradient.
    const auto* layers = row.find("layers");
    ASSERT_NE(layers, nullptr);
    EXPECT_GT(layers->array.size(), 1u);
  }
}

TEST(LedgerReconcile, SequentialTrainerPhaseColumnsAreMeasuredUnderPaperScale) {
  // Paper scale charges 10 s of modelled compute per iteration to simulated
  // time (3.33 s of it forward); the ledger's phase columns are this host's
  // wall times of the same step, with the decode of all 3 packets.
  LedgerSession session("seqphases");
  util::Rng rng(7);
  core::TrainerConfig cfg;
  cfg.ranks = 3;
  cfg.epochs = 1;
  cfg.iters_per_epoch = 3;
  cfg.batch_per_rank = 8;
  cfg.paper_scale =
      core::PaperScale{.raw_gradient_bytes = 250e6, .compute_seconds = util::SimSeconds(10.0)};
  core::DistributedTrainer trainer(nn::models::make_mlp(8, 16, 2, 3, rng),
                                   nn::SyntheticDataset({8}, 3, 29), cfg);
  trainer.train(
      [](std::size_t) {
        return std::make_unique<core::FftCompressor>(
            core::FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
      },
      core::FixedTheta(0.5), nn::StepLrSchedule({{0, 0.05f}}));
  RunLedger::global().close();

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].iterations.size(), 3u);
  double previous_sim_s = 0.0;
  for (const auto& row : runs[0].iterations) {
    EXPECT_GE(row.number_or("sim_time_s", 0.0) - previous_sim_s, 10.0);
    previous_sim_s = row.number_or("sim_time_s", 0.0);
    const auto* phases = row.find("phases");
    ASSERT_NE(phases, nullptr);
    for (const char* phase : {"forward_s", "backward_s", "compress_s", "decompress_s"}) {
      EXPECT_GT(phases->number_or(phase, -1.0), 0.0) << phase;
      EXPECT_LT(phases->number_or(phase, 99.0), 0.5) << phase;
    }
  }
}

TEST(LedgerReconcile, LossyCodecReportsRoundTripQuality) {
  LedgerSession session("lossy");
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  run_cluster(cluster, 4, /*fft_codec=*/true);
  RunLedger::global().close();

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  for (const auto& row : runs[0].iterations) {
    const auto* roundtrip = row.find("roundtrip");
    ASSERT_NE(roundtrip, nullptr);
    EXPECT_GT(roundtrip->number_or("alpha", 0.0), 0.0);  // lossy -> alpha > 0
    EXPECT_GT(roundtrip->number_or("ratio", 0.0), 1.0);  // and it compresses
    EXPECT_GT(roundtrip->number_or("rms_error", 0.0), 0.0);
  }
}

// ---------------------------------------------------------------------------
// One dedicated firing test per health monitor (direct row API; each row is
// clean except for the seeded pathology).

telemetry::LedgerIteration clean_row(std::uint64_t iteration) {
  telemetry::LedgerIteration row;
  row.iteration = iteration;
  row.loss = 0.5;
  row.grad_norm = 1.0;
  row.alpha = 0.1;
  row.ratio = 4.0;
  return row;
}

TEST(LedgerMonitors, NanGradientFires) {
  LedgerSession session("mon_nan");
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "noop", 1, 1, 0, {}, 0.0});
  auto row = clean_row(0);
  row.grad_norm = std::numeric_limits<double>::quiet_NaN();
  ledger.end_iteration(row);
  EXPECT_EQ(ledger.alerts("nan_gradient"), 1u);
  EXPECT_EQ(ledger.alerts_total(), 1u);
}

TEST(LedgerMonitors, NonfiniteLossFires) {
  LedgerSession session("mon_loss");
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "noop", 1, 1, 0, {}, 0.0});
  auto row = clean_row(0);
  row.loss = std::numeric_limits<double>::infinity();
  ledger.end_iteration(row);
  EXPECT_EQ(ledger.alerts("nonfinite_loss"), 1u);
  EXPECT_EQ(ledger.alerts_total(), 1u);
}

TEST(LedgerMonitors, AlphaBoundFires) {
  LedgerSession session("mon_alpha");
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "noop", 1, 1, 0, {}, 0.0});
  auto row = clean_row(0);
  row.alpha = 1.25;  // Theorem 3.3 needs alpha < 1
  ledger.end_iteration(row);
  EXPECT_EQ(ledger.alerts("alpha_bound"), 1u);
  EXPECT_EQ(ledger.alerts_total(), 1u);
}

TEST(LedgerMonitors, RatioCollapseFires) {
  LedgerSession session("mon_ratio");
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "noop", 1, 1, 0, {}, 0.0});
  auto row = clean_row(0);
  row.ratio = 0.5;  // the codec is expanding the gradient
  ledger.end_iteration(row);
  EXPECT_EQ(ledger.alerts("ratio_collapse"), 1u);
  EXPECT_EQ(ledger.alerts_total(), 1u);
}

TEST(LedgerMonitors, ModelDriftFires) {
  telemetry::LedgerTolerances tolerances;
  tolerances.drift_window = 2;
  LedgerSession session("mon_drift", tolerances);
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "noop", 1, 4, 0, {}, 0.0});
  for (std::uint64_t i = 0; i < 2; ++i) {
    ledger.record_collective({"allgather", i, util::Bytes(100.0), util::SimSeconds(1.0),
                              util::SimSeconds(2.0), util::SimSeconds(0.0), 0, 0});
    ledger.end_iteration(clean_row(i));
  }
  // |2 - 1| / 1 = 1.0 > drift_rel_tol once the 2-iteration window fills.
  EXPECT_EQ(ledger.alerts("model_drift"), 1u);
  EXPECT_EQ(ledger.alerts_total(), 1u);
}

TEST(LedgerMonitors, ResidualGrowthFires) {
  LedgerSession session("mon_residual");
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "ef", 1, 1, 0, {}, 0.0});
  auto row = clean_row(0);
  row.ef_residual_norm = 250.0;  // vs grad_norm 1.0, factor 100
  ledger.end_iteration(row);
  EXPECT_EQ(ledger.alerts("residual_growth"), 1u);
  EXPECT_EQ(ledger.alerts_total(), 1u);
}

TEST(LedgerMonitors, QuietWindowAfterDriftAlertRearms) {
  telemetry::LedgerTolerances tolerances;
  tolerances.drift_window = 2;
  LedgerSession session("mon_rearm", tolerances);
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "noop", 1, 6, 0, {}, 0.0});
  for (std::uint64_t i = 0; i < 2; ++i) {
    ledger.record_collective({"allgather", i, util::Bytes(100.0), util::SimSeconds(1.0),
                              util::SimSeconds(2.0), util::SimSeconds(0.0), 0, 0});
    ledger.end_iteration(clean_row(i));
  }
  EXPECT_EQ(ledger.alerts("model_drift"), 1u);
  // Reconciling iterations refill the window without re-firing.
  for (std::uint64_t i = 2; i < 4; ++i) {
    ledger.record_collective({"allgather", i, util::Bytes(100.0), util::SimSeconds(1.0),
                              util::SimSeconds(1.0), util::SimSeconds(0.0), 0, 0});
    ledger.end_iteration(clean_row(i));
  }
  EXPECT_EQ(ledger.alerts("model_drift"), 1u);
}

// ---------------------------------------------------------------------------
// Disabled fast path: no allocations, no writes.

TEST(LedgerOverhead, DisabledHooksAllocateNothingAndWriteNothing) {
  RunLedger& ledger = RunLedger::global();
  ledger.close();  // ensure disabled
  ASSERT_FALSE(ledger.enabled());

  // Pre-build inputs outside the measured window (callers in the trainers
  // guard row *construction* with enabled(), so hook-call cost is what the
  // disabled path must keep at zero).
  const telemetry::LedgerManifest manifest;
  const telemetry::LedgerCollective sample{
      "allgather", 0, util::Bytes(1.0), util::SimSeconds(1.0), util::SimSeconds(1.0),
      util::SimSeconds(0.0), 0, 0};
  telemetry::LedgerIteration row;

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(ledger.begin_run(manifest), 0u);
    ledger.record_collective(sample);
    ledger.end_iteration(row);
    ledger.end_run();
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(ledger.bytes_written(), 0u);
}

TEST(LedgerOverhead, CloseResetsBytesWritten) {
  RunLedger& ledger = RunLedger::global();
  {
    LedgerSession session("close_reset");
    ledger.begin_run({});
    ledger.end_iteration(clean_row(0));
    ledger.end_run();
    EXPECT_GT(ledger.bytes_written(), 0u);
  }
  ASSERT_FALSE(ledger.enabled());
  EXPECT_EQ(ledger.bytes_written(), 0u);
}

// ---------------------------------------------------------------------------
// Reader: JSON parser and schema validation.

TEST(LedgerReader, ParsesScalarsStringsAndNesting) {
  const auto doc = telemetry::parse_json(
      R"({"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -2e3}})");
  EXPECT_EQ(doc.number_or("a", 0.0), 1.5);
  const auto* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_EQ(b->array[1].kind, telemetry::JsonValue::Kind::kNull);
  EXPECT_EQ(b->array[2].string, "x\n\"y\"");
  ASSERT_NE(doc.find("c"), nullptr);
  EXPECT_EQ(doc.find("c")->number_or("d", 0.0), -2000.0);
}

TEST(LedgerReader, ParsesUnicodeEscapes) {
  const auto doc = telemetry::parse_json(R"({"s": "Aé€"})");
  EXPECT_EQ(doc.string_or("s", ""), "A\xC3\xA9\xE2\x82\xAC");
}

TEST(LedgerReader, RejectsMalformedInput) {
  EXPECT_THROW(telemetry::parse_json("{"), std::runtime_error);
  EXPECT_THROW(telemetry::parse_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(telemetry::parse_json("[1, 2] trailing"), std::runtime_error);
  EXPECT_THROW(telemetry::parse_json("{\"a\": 1e}"), std::runtime_error);
  EXPECT_THROW(telemetry::parse_json("\"unterminated"), std::runtime_error);
}

TEST(LedgerReader, ValidatorFlagsSchemaProblems) {
  const std::string path = temp_ledger_path("badschema");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // Manifest missing 'seed'; iteration missing 'phases' and numbered 5.
    std::fputs(
        "{\"type\":\"manifest\",\"run\":1,\"trainer\":\"t\",\"compressor\":\"c\","
        "\"ranks\":1,\"iterations\":1,\"fault_rate\":0,"
        "\"network\":{\"name\":\"n\",\"latency_s\":0,\"bandwidth_bytes_s\":1,"
        "\"loss_rate\":0}}\n"
        "{\"type\":\"iteration\",\"run\":1,\"iter\":5,\"loss\":0,\"sim_time_s\":0,"
        "\"collectives\":[],\"roundtrip\":{\"alpha\":0,\"ratio\":1,\"rms_error\":0,"
        "\"max_error\":0,\"wire_bytes\":0},\"grad_norm\":1,\"skipped_peers\":0}\n",
        f);
    std::fclose(f);
  }
  const auto runs = telemetry::read_ledger_file(path);
  const auto problems = telemetry::validate_ledger(runs);
  EXPECT_GE(problems.size(), 3u);  // missing seed, bad iter number, no phases
}

TEST(LedgerReader, RejectsRowsBeforeManifest) {
  const std::string path = temp_ledger_path("orphan");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"iteration\",\"run\":1,\"iter\":0}\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(telemetry::read_ledger_file(path), std::runtime_error);
}

TEST(LedgerReader, NonFiniteValuesSurviveTheRoundTrip) {
  LedgerSession session("nonfinite");
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "noop", 1, 1, 0, {}, 0.0});
  auto row = clean_row(0);
  row.grad_norm = std::numeric_limits<double>::quiet_NaN();
  row.loss = -std::numeric_limits<double>::infinity();
  ledger.end_iteration(row);
  ledger.end_run();
  RunLedger::global().close();

  // NaN/Inf are encoded as strings so every line stays parseable JSON.
  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].iterations.size(), 1u);
  EXPECT_EQ(runs[0].iterations[0].string_or("grad_norm", ""), "nan");
  EXPECT_EQ(runs[0].iterations[0].string_or("loss", ""), "-inf");
  EXPECT_TRUE(telemetry::validate_ledger(runs).empty());
  EXPECT_EQ(runs[0].alerts.size(), 2u);  // nan_gradient + nonfinite_loss
}

}  // namespace
}  // namespace fftgrad
