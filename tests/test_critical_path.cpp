// Cross-rank critical-path analyzer: hand-built event DAGs with known
// answers (path shape, straggler attribution, flow-shop pipeline bound),
// the Chrome-JSON round trip, and integration against real cluster_train
// runs — the acceptance invariants (per-iteration category times sum to
// the simulated end-to-end time within 1e-6, fig02-band comm share on a
// lossless run, ledger reconciliation), the codec category taken from the
// codec's own cost model, 16-seed determinism and fault attribution under
// a chaos plan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fftgrad/analysis/critpath_check.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/telemetry/critical_path.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/trace.h"

namespace fftgrad::telemetry {
namespace {

CpEvent span(std::int32_t rank, const char* name, double start, double end,
             std::int64_t iteration = -1, std::int64_t op = -1, std::int32_t peer = -1) {
  CpEvent e;
  e.rank = rank;
  e.name = name;
  e.start_s = util::SimSeconds(start);
  e.end_s = util::SimSeconds(end);
  e.iteration = iteration;
  e.op = op;
  e.peer = peer;
  return e;
}

double seconds(const CpAnalysis& analysis, CpCategory category) {
  return analysis.total_s[static_cast<std::size_t>(category)].to_double();
}

// Two ranks, rank 1 slower into the barrier: the path must follow rank 1
// through the barrier (no idle segment — the release equals its arrival)
// and attribute the shared collective after it.
TEST(CriticalPath, KnownPathFollowsBoundingRank) {
  std::vector<CpEvent> events;
  events.push_back(span(0, "backward", 0.0, 2.0, 0));
  events.push_back(span(1, "backward", 0.0, 3.0, 0));
  events.push_back(span(0, "barrier", 2.0, 3.0, 0, /*op=*/0));
  events.push_back(span(1, "barrier", 3.0, 3.0, 0, /*op=*/0));
  events.push_back(span(0, "collective", 3.0, 5.0, 0));
  events.push_back(span(1, "collective", 3.0, 5.0, 0));

  const CpAnalysis analysis = analyze_critical_path(events);
  ASSERT_EQ(analysis.iterations.size(), 1u);
  const CpIteration& it = analysis.iterations[0];
  EXPECT_DOUBLE_EQ(it.e2e_s().to_double(), 5.0);
  EXPECT_DOUBLE_EQ(seconds(analysis, CpCategory::kBackprop), 3.0);
  EXPECT_DOUBLE_EQ(seconds(analysis, CpCategory::kCollective), 2.0);
  EXPECT_DOUBLE_EQ(seconds(analysis, CpCategory::kBarrierIdle), 0.0);
  EXPECT_NEAR(it.category_sum_s().to_double(), it.e2e_s().to_double(), 1e-12);
  EXPECT_NEAR(it.comm_share(), 0.4, 1e-12);
  // min(compute 3, comm 2); the single-chunk pipeline cannot overlap.
  EXPECT_DOUBLE_EQ(it.overlap_bound_s.to_double(), 2.0);
  EXPECT_DOUBLE_EQ(it.pipeline_bound_s.to_double(), 0.0);

  ASSERT_EQ(it.path.size(), 2u);
  EXPECT_EQ(it.path[0].category, CpCategory::kBackprop);
  EXPECT_EQ(it.path[0].rank, 1);  // the slower rank bounds the barrier
  EXPECT_EQ(it.path[1].category, CpCategory::kCollective);

  EXPECT_TRUE(analysis.problems.empty());
  EXPECT_TRUE(analysis::validate_critical_path(analysis, events).empty());
}

// Timeout-capped barrier: rank 1 straggled past the deadline and was
// snapped back ("abandoned" record). The wait between the last live
// arrival and the capped release must be charged to the straggler.
TEST(CriticalPath, StragglerWaitAttributedToAbandonedRank) {
  std::vector<CpEvent> events;
  events.push_back(span(0, "backward", 0.0, 1.0, 0));
  events.push_back(span(1, "backward", 0.0, 1.0, 0));
  events.push_back(span(1, "straggle", 1.0, 2.2, 0));
  events.push_back(span(0, "barrier", 1.0, 1.5, 0, /*op=*/0));
  events.push_back(span(1, "abandoned", 1.5, 2.2, 0, /*op=*/0));
  events.push_back(span(0, "collective", 1.5, 2.5, 0));
  events.push_back(span(1, "collective", 1.5, 2.5, 0));

  const CpAnalysis analysis = analyze_critical_path(events);
  ASSERT_EQ(analysis.iterations.size(), 1u);
  const CpIteration& it = analysis.iterations[0];
  EXPECT_DOUBLE_EQ(it.e2e_s().to_double(), 2.5);
  EXPECT_NEAR(it.category_sum_s().to_double(), it.e2e_s().to_double(), 1e-12);
  EXPECT_DOUBLE_EQ(seconds(analysis, CpCategory::kStragglerWait), 0.5);

  bool found_wait = false;
  for (const CpSegment& seg : it.path) {
    if (seg.category != CpCategory::kStragglerWait) continue;
    found_wait = true;
    EXPECT_EQ(seg.rank, 1);  // charged to the abandoned straggler
    EXPECT_EQ(seg.peer, 1);
    EXPECT_DOUBLE_EQ(seg.start_s.to_double(), 1.0);
    EXPECT_DOUBLE_EQ(seg.end_s.to_double(), 1.5);
  }
  EXPECT_TRUE(found_wait);
  EXPECT_TRUE(analysis.problems.empty());
}

// Two-layer pipeline: compute g = [5, 3], comm h = [3, 2] in serial order.
// The FIFO flow shop finishes at max(g1+g2, max(g1, ...) + h chain) = 10,
// so the pipeline bound is 13 - 10 = 3 — exactly min(g2+?, ...) achievable
// by starting h1 the moment g1 is done. The generic overlap bound
// (min(compute, comm) = 5) is looser.
TEST(CriticalPath, PipelineBoundExactOnTwoLayerPipeline) {
  std::vector<CpEvent> events;
  events.push_back(span(0, "backward", 0.0, 5.0));
  events.push_back(span(0, "collective", 5.0, 8.0));
  events.push_back(span(0, "backward", 8.0, 11.0));
  events.push_back(span(0, "collective", 11.0, 13.0));

  const CpAnalysis analysis = analyze_critical_path(events);
  ASSERT_EQ(analysis.iterations.size(), 1u);
  const CpIteration& it = analysis.iterations[0];
  EXPECT_DOUBLE_EQ(it.e2e_s().to_double(), 13.0);
  EXPECT_DOUBLE_EQ(it.overlap_bound_s.to_double(), 5.0);
  EXPECT_DOUBLE_EQ(it.pipeline_bound_s.to_double(), 3.0);
}

// Untracked gaps: simulated time not covered by any cp span must still be
// tiled (category sums stay exact) and flagged as untracked.
TEST(CriticalPath, GapsBecomeUntrackedSegments) {
  std::vector<CpEvent> events;
  events.push_back(span(0, "backward", 1.0, 2.0, 0));
  events.push_back(span(0, "collective", 3.0, 4.0, 0));

  const CpAnalysis analysis = analyze_critical_path(events);
  ASSERT_EQ(analysis.iterations.size(), 1u);
  const CpIteration& it = analysis.iterations[0];
  EXPECT_DOUBLE_EQ(it.e2e_s().to_double(), 4.0);
  EXPECT_NEAR(it.category_sum_s().to_double(), it.e2e_s().to_double(), 1e-12);
  EXPECT_DOUBLE_EQ(seconds(analysis, CpCategory::kUntracked), 2.0);  // [0,1] and [2,3]
}

// A leaf span whose name maps to no category still tiles its window (as
// untracked), and the validator reports it with the analyzer's other
// problems, so `trace_analyze --check` fails on a charge site the analyzer
// does not map.
TEST(CriticalPath, ValidatorReportsAnUnknownLeafSpan) {
  std::vector<CpEvent> events;
  events.push_back(span(0, "backward", 0.0, 1.0, 0));
  events.push_back(span(0, "inverse_fft", 1.0, 1.5, 0));
  events.push_back(span(0, "collective", 1.5, 2.0, 0));

  const CpAnalysis analysis = analyze_critical_path(events);
  EXPECT_DOUBLE_EQ(seconds(analysis, CpCategory::kUntracked), 0.5);
  ASSERT_EQ(analysis.problems.size(), 1u);
  // Under the FFTGRAD_ANALYSIS presets each problem also goes through
  // report_violation, whose default handler aborts.
  analysis::set_violation_handler(+[](const char*, const std::string&) {});
  const std::vector<std::string> problems = analysis::validate_critical_path(analysis, events);
  analysis::set_violation_handler(nullptr);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown cp span 'inverse_fft'"), std::string::npos) << problems[0];
}

// The exported Chrome JSON must round-trip the cp events (µs timestamps
// at %.3f precision = nanosecond resolution) back into the same analysis.
TEST(CriticalPath, ChromeJsonRoundTripsEvents) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.begin_sim_session();
  tracer.record_sim_span(0, "backward", "cp", 0.0, 0.125);
  tracer.record_sim_span(1, "backward", "cp", 0.0, 0.25);
  tracer.record_sim_span(0, "barrier", "cp", 0.125, 0.25, /*op=*/0);
  tracer.record_sim_span(1, "barrier", "cp", 0.25, 0.25, /*op=*/0);
  tracer.record_sim_span(0, "publish", "cp-edge", 0.25, 0.25, /*op=*/7);
  tracer.record_sim_span(1, "consume", "cp-edge", 0.375, 0.375, /*op=*/7, /*peer=*/0);
  tracer.record_sim_span(0, "collective", "cp", 0.25, 0.375, /*op=*/7);
  tracer.record_sim_span(1, "collective", "cp", 0.25, 0.375, /*op=*/7);

  const std::vector<SpanRecord> records = tracer.snapshot();
  const std::vector<CpEvent> direct =
      cp_events_from_records(records, latest_sim_session(records));

  const std::string path = ::testing::TempDir() + "critpath_roundtrip_trace.json";
  ASSERT_TRUE(tracer.export_chrome_json(path));
  const std::vector<CpEvent> parsed = cp_events_from_chrome_json(path);
  tracer.set_enabled(false);
  tracer.clear();
  std::remove(path.c_str());

  ASSERT_EQ(parsed.size(), direct.size());
  const std::string before = serialize_critpath(analyze_critical_path(direct));
  const std::string after = serialize_critpath(analyze_critical_path(parsed));
  EXPECT_EQ(before, after);
  for (const CpEvent& e : parsed) {
    if (e.name == "consume") {
      EXPECT_EQ(e.peer, 0);
      EXPECT_EQ(e.op, 7);
      EXPECT_TRUE(e.edge);
    }
  }
}

// ---------------------------------------------------------------------------
// Integration against real cluster_train runs.

std::function<nn::Network()> mlp_factory() {
  return [] {
    util::Rng rng(999);
    return nn::models::make_mlp(8, 16, 2, 3, rng);
  };
}

using CodecFactory = std::function<std::unique_ptr<core::GradientCompressor>(std::size_t)>;

CodecFactory noop_codec() {
  return [](std::size_t) { return std::make_unique<core::NoopCompressor>(); };
}

/// Run a lossless 4-rank training with the tracer on and return the
/// analysis of its simulated session.
CpAnalysis traced_run(const core::ClusterTrainConfig& cfg, const comm::FaultPlan* plan,
                      std::vector<CpEvent>* events_out = nullptr,
                      const CodecFactory& codec = noop_codec()) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  comm::SimCluster cluster = plan == nullptr
                                 ? comm::SimCluster(comm::NetworkModel::infiniband_fdr56())
                                 : comm::SimCluster(comm::NetworkModel::ethernet_10g(), *plan);
  nn::SyntheticDataset data({8}, 3, 11);
  core::cluster_train(cluster, cfg, mlp_factory(), codec, data);
  const std::vector<SpanRecord> records = tracer.snapshot();
  tracer.set_enabled(false);
  tracer.clear();
  const std::vector<CpEvent> events =
      cp_events_from_records(records, latest_sim_session(records));
  if (events_out != nullptr) *events_out = events;
  return analyze_critical_path(events);
}

// fig02-style lossless 4-rank run: per-iteration category times must sum
// to the simulated end-to-end time within 1e-6, the comm share must land
// in the fig02 band (35-54%), and comm on the path must reconcile with
// the ledger's charged collective costs.
TEST(CriticalPathIntegration, LosslessFig02StyleRunSumsAndReconciles) {
  core::ClusterTrainConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = 6;
  cfg.seed = 5;

  // Calibrate: measure the comm-only iteration time first, then model the
  // compute so communication is ~45% of the iteration — the middle of the
  // fig02 comm_share band (AlexNet 35%, ResNet32 54%).
  const CpAnalysis comm_only = traced_run(cfg, nullptr);
  ASSERT_FALSE(comm_only.iterations.empty());
  const double comm_per_iter =
      comm_only.comm_s().to_double() / static_cast<double>(comm_only.iterations.size());
  ASSERT_GT(comm_per_iter, 0.0);
  cfg.compute =
      perfmodel::ComputeModel{.compute_s = util::SimSeconds(comm_per_iter / 0.45 - comm_per_iter)};

  const std::string ledger_path = ::testing::TempDir() + "critpath_fig02_ledger.jsonl";
  std::remove(ledger_path.c_str());
  RunLedger& ledger = RunLedger::global();
  ASSERT_TRUE(ledger.open(ledger_path));
  std::vector<CpEvent> events;
  const CpAnalysis analysis = traced_run(cfg, nullptr, &events);
  ledger.close();

  ASSERT_GE(analysis.iterations.size(), cfg.iterations);
  for (const CpIteration& it : analysis.iterations) {
    EXPECT_NEAR(it.category_sum_s().to_double(), it.e2e_s().to_double(), 1e-6)
        << "iteration " << it.iteration << " does not tile its window";
  }
  EXPECT_TRUE(analysis.problems.empty());
  EXPECT_TRUE(analysis::validate_critical_path(analysis, events).empty());

  // Lossless symmetric BSP: no rank waits, so the share realizes the
  // modelled 45% and sits inside the fig02 band.
  EXPECT_GT(analysis.comm_share(), 0.35);
  EXPECT_LT(analysis.comm_share(), 0.54);
  EXPECT_NEAR(analysis.comm_share(), 0.45, 0.05);

  // Ledger reconciliation: comm on the path equals the charged collective
  // cost of the recording rank (same model, same inputs, no faults).
  const std::vector<LedgerRun> runs = read_ledger_file(ledger_path);
  ASSERT_FALSE(runs.empty());
  const CpLedgerReconcile reconcile = reconcile_with_ledger(analysis, runs.back());
  EXPECT_TRUE(reconcile.compared);
  EXPECT_LT(reconcile.rel_diff, 1e-9)
      << "charged " << reconcile.ledger_charged_s.to_double() << " vs path "
      << reconcile.path_comm_s.to_double();
  std::remove(ledger_path.c_str());
}

// The path's codec time is the codec's own modelled cost: its Sec 3.3
// seconds per byte on the gradient, once to compress and once to
// decompress per iteration. A pass-through codec puts nothing there.
TEST(CriticalPathIntegration, CodecCategoryComesFromTheCodecsModel) {
  core::ClusterTrainConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = 4;
  cfg.seed = 3;
  cfg.compute = perfmodel::ComputeModel{.compute_s = util::SimSeconds(1e-4)};
  const CodecFactory fft = [](std::size_t) {
    return std::make_unique<core::FftCompressor>(
        core::FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
  };
  const double gradient_bytes =
      static_cast<double>(mlp_factory()().param_count() * sizeof(float));
  const double expected = static_cast<double>(cfg.iterations) * 2.0 * gradient_bytes *
                          fft(0)->modeled_seconds_per_byte(cfg.compute->throughputs);
  ASSERT_GT(expected, 0.0);

  const CpAnalysis with_fft = traced_run(cfg, nullptr, nullptr, fft);
  EXPECT_NEAR(seconds(with_fft, CpCategory::kCodec), expected, 1e-9 * expected);
  EXPECT_TRUE(with_fft.problems.empty());
  const CpAnalysis with_noop = traced_run(cfg, nullptr);
  EXPECT_EQ(seconds(with_noop, CpCategory::kCodec), 0.0);
}

// Same seed -> bit-identical serialized analysis, across 16 seeds. The
// simulated clocks are deterministic, so any nondeterminism would come
// from the analyzer itself (map ordering, tie-breaks).
TEST(CriticalPathIntegration, SixteenSeedDeterminism) {
  core::ClusterTrainConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = 3;
  cfg.compute = perfmodel::ComputeModel{.compute_s = util::SimSeconds(4.7e-4)};
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    cfg.seed = seed;
    const std::string first = serialize_critpath(traced_run(cfg, nullptr));
    const std::string second = serialize_critpath(traced_run(cfg, nullptr));
    EXPECT_EQ(first, second) << "seed " << seed << " is not deterministic";
    EXPECT_NE(first.find("iter"), std::string::npos);
  }
}

// Chaos attribution: with a straggling rank and a lossy fabric, straggle
// and straggler-wait path time must be charged to the faulted rank, and
// every retry segment must name the sender it recovered.
TEST(CriticalPathIntegration, ChaosTimeAttributedToFaultedRank) {
  core::ClusterTrainConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = 12;
  cfg.seed = 9;
  cfg.compute = perfmodel::ComputeModel{.compute_s = util::SimSeconds(3e-4)};

  comm::FaultPlan plan;
  plan.seed = 2020;
  plan.drop_prob = 0.05;
  plan.straggler_timeout_s = util::SimSeconds(0.005);
  plan.stragglers.push_back(
      {.rank = 2, .slowdown_s = util::SimSeconds(0.05), .from_op = 2, .until_op = 6});

  std::vector<CpEvent> events;
  const CpAnalysis analysis = traced_run(cfg, &plan, &events);
  ASSERT_FALSE(analysis.iterations.empty());
  for (const CpIteration& it : analysis.iterations) {
    EXPECT_NEAR(it.category_sum_s().to_double(), it.e2e_s().to_double(), 1e-6);
  }

  double faulted_s = 0.0;
  std::size_t retries = 0;
  for (const CpIteration& it : analysis.iterations) {
    for (const CpSegment& seg : it.path) {
      if (seg.category == CpCategory::kStraggle ||
          seg.category == CpCategory::kStragglerWait) {
        EXPECT_EQ(seg.rank, 2) << "fault time charged to the wrong rank";
        faulted_s += (seg.end_s - seg.start_s).to_double();
      }
      if (seg.category == CpCategory::kRetry) {
        EXPECT_GE(seg.peer, 0) << "retry segment lost its sender attribution";
        ++retries;
      }
    }
  }
  // The straggler's slowdown dominates those rounds, so it must appear on
  // the critical path; the 5% drop rate makes retries near-certain over
  // 12 iterations x 4 ranks.
  EXPECT_GT(faulted_s, 0.0);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(seconds(analysis, CpCategory::kStragglerWait) +
                seconds(analysis, CpCategory::kStraggle),
            0.0);
}

// Report/diff renderers: headline sections present in both flavors, and
// the diff of an analysis against itself is all-zero deltas.
TEST(CriticalPath, ReportAndDiffRender) {
  std::vector<CpEvent> events;
  events.push_back(span(0, "backward", 0.0, 2.0, 0));
  events.push_back(span(0, "collective", 2.0, 3.0, 0));
  const CpAnalysis analysis = analyze_critical_path(events);

  const std::string plain = render_critpath_report(analysis, false);
  EXPECT_NE(plain.find("critical path"), std::string::npos);
  EXPECT_NE(plain.find("backprop"), std::string::npos);
  const std::string markdown = render_critpath_report(analysis, true);
  EXPECT_NE(markdown.find("# Critical path"), std::string::npos);

  const std::string diff = render_critpath_diff(analysis, analysis, false);
  EXPECT_NE(diff.find("+0.000000"), std::string::npos);

  const LedgerCritpath row = ledger_critpath_from(analysis);
  EXPECT_EQ(row.iterations, 1u);
  EXPECT_DOUBLE_EQ(row.e2e_s.to_double(), 3.0);
  EXPECT_DOUBLE_EQ(row.comm_s.to_double(), 1.0);
}

}  // namespace
}  // namespace fftgrad::telemetry
