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

// The pipeline bound counts each compute span on the path as one stage:
// splitting one compute span into two halves leaves e2e, every category
// total and the overlap bound as they were and moves only the pipeline
// bound, here from 0 to 2 s (the collective may start once the first half
// is done).
TEST(CriticalPath, PipelineBoundCountsEachComputeSpanAsAStage) {
  const CpEvent comm = span(0, "collective", 4.0, 6.0, 0);
  const CpAnalysis whole = analyze_critical_path({span(0, "backward", 0.0, 4.0, 0), comm});
  const CpAnalysis halves = analyze_critical_path(
      {span(0, "backward", 0.0, 2.0, 0), span(0, "backward", 2.0, 4.0, 0), comm});
  ASSERT_EQ(whole.iterations.size(), 1u);
  ASSERT_EQ(halves.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(halves.e2e_s().to_double(), 6.0);
  EXPECT_DOUBLE_EQ(whole.e2e_s().to_double(), 6.0);
  for (std::size_t c = 0; c < kCpCategoryCount; ++c) {
    EXPECT_DOUBLE_EQ(halves.total_s[c].to_double(), whole.total_s[c].to_double())
        << cp_category_name(static_cast<CpCategory>(c));
  }
  EXPECT_DOUBLE_EQ(whole.overlap_bound_s.to_double(), 2.0);
  EXPECT_DOUBLE_EQ(halves.overlap_bound_s.to_double(), 2.0);
  EXPECT_DOUBLE_EQ(whole.pipeline_bound_s.to_double(), 0.0);
  EXPECT_DOUBLE_EQ(halves.pipeline_bound_s.to_double(), 2.0);
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
// problems, so `run_report --check` fails on a charge site the analyzer
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

std::string printed(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

/// The TableWriter tables in `text`: each is its run of consecutive lines
/// that start with '|'.
std::vector<std::vector<std::string>> tables_in(const std::string& text) {
  std::vector<std::vector<std::string>> tables;
  bool in_table = false;
  for (std::size_t at = 0; at < text.size();) {
    std::size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(at, end - at);
    at = end + 1;
    const bool row = !line.empty() && line[0] == '|';
    if (row && !in_table) tables.emplace_back();
    if (row) tables.back().push_back(line);
    in_table = row;
  }
  return tables;
}

bool is_separator(const std::string& line) {
  return line.find_first_not_of("|-") == std::string::npos;
}

/// The trimmed cells of one table row: "| a | b |" -> {"a", "b"}.
std::vector<std::string> cells_of(const std::string& line) {
  std::vector<std::string> cells;
  for (std::size_t at = 1; at < line.size();) {
    const std::size_t bar = line.find('|', at);
    if (bar == std::string::npos) break;
    const std::string cell = line.substr(at, bar - at);
    const std::size_t first = cell.find_first_not_of(' ');
    const std::size_t last = cell.find_last_not_of(' ');
    cells.push_back(first == std::string::npos ? "" : cell.substr(first, last - first + 1));
    at = bar + 1;
  }
  return cells;
}

using Row = std::vector<std::string>;

/// Every table has one header, one separator line right under it and no
/// other separator.
void expect_one_separator_each(const std::vector<std::vector<std::string>>& tables) {
  for (const std::vector<std::string>& table : tables) {
    ASSERT_GE(table.size(), 2u);
    for (std::size_t i = 0; i < table.size(); ++i) {
      EXPECT_EQ(is_separator(table[i]), i == 1) << table[i];
    }
  }
}

// Report/diff renderers: each section is one TableWriter table (header,
// one separator line), and every printed number is the analysis field at
// the printed precision: seconds with six decimals, shares with one.
TEST(CriticalPath, ReportAndDiffRender) {
  std::vector<CpEvent> events;
  events.push_back(span(0, "backward", 0.0, 1.2345678, 0));
  events.push_back(span(0, "collective", 1.2345678, 2.0000004, 0));
  events.push_back(span(1, "backward", 0.0, 0.5, 0));  // off the path
  const CpAnalysis analysis = analyze_critical_path(events);
  ASSERT_EQ(analysis.iterations.size(), 1u);
  const CpIteration& it = analysis.iterations[0];
  const auto sec = [](util::SimSeconds s) { return printed("%.6f", s.to_double()); };
  const auto pct = [](double share) { return printed("%.1f%%", share * 100.0); };
  const auto total = [](const CpAnalysis& a, CpCategory c) {
    return a.total_s[static_cast<std::size_t>(c)];
  };

  const std::string report = render_critpath_report(analysis);
  EXPECT_NE(report.find("one stage per compute span"), std::string::npos) << report;
  const std::vector<std::vector<std::string>> tables = tables_in(report);
  ASSERT_EQ(tables.size(), 3u) << report;  // totals, iterations, ranks
  expect_one_separator_each(tables);

  const std::vector<std::string>& totals = tables[0];
  EXPECT_EQ(cells_of(totals[0]), (Row{"category", "seconds", "share"}));
  ASSERT_EQ(totals.size(), 4u);
  const util::SimSeconds backprop = total(analysis, CpCategory::kBackprop);
  const util::SimSeconds collective = total(analysis, CpCategory::kCollective);
  EXPECT_EQ(cells_of(totals[2]), (Row{"backprop", sec(backprop), pct(backprop / it.e2e_s())}));
  EXPECT_EQ(cells_of(totals[3]),
            (Row{"collective", sec(collective), pct(collective / it.e2e_s())}));
  EXPECT_EQ(sec(backprop), "1.234568");

  const std::vector<std::string>& iterations = tables[1];
  EXPECT_EQ(cells_of(iterations[0]), (Row{"iter", "e2e_s", "compute_s", "comm_s", "comm_share",
                                          "overlap_bound_s", "pipeline_bound_s"}));
  ASSERT_EQ(iterations.size(), 3u);
  EXPECT_EQ(cells_of(iterations[2]),
            (Row{"0", sec(it.e2e_s()), sec(it.compute_s()), sec(it.comm_s()),
                 pct(it.comm_share()), sec(it.overlap_bound_s), sec(it.pipeline_bound_s)}));

  const std::vector<std::string>& ranks = tables[2];
  EXPECT_EQ(cells_of(ranks[0]), (Row{"rank", "on_path_s", "busy_s", "idle_s"}));
  ASSERT_EQ(ranks.size(), 2u + analysis.ranks.size());
  for (std::size_t i = 0; i < analysis.ranks.size(); ++i) {
    const CpRankSummary& r = analysis.ranks[i];
    util::SimSeconds busy{};
    for (util::SimSeconds v : r.busy_s) busy += v;  // no barrier time here
    EXPECT_EQ(cells_of(ranks[2 + i]),
              (Row{std::to_string(r.rank), sec(r.on_path_s), sec(busy), sec(r.idle_s)}));
  }

  // The diff against a run whose collective took 0.5 s longer.
  events[1].end_s = util::SimSeconds(2.5000004);
  const CpAnalysis slower = analyze_critical_path(events);
  const util::SimSeconds slower_collective = total(slower, CpCategory::kCollective);
  const std::string diff = render_critpath_diff(analysis, slower);
  const std::vector<std::vector<std::string>> diff_tables = tables_in(diff);
  ASSERT_EQ(diff_tables.size(), 1u) << diff;
  expect_one_separator_each(diff_tables);
  const std::vector<std::string>& categories = diff_tables[0];
  EXPECT_EQ(cells_of(categories[0]), (Row{"category", "before_s", "after_s", "delta_s"}));
  ASSERT_EQ(categories.size(), 4u);
  EXPECT_EQ(cells_of(categories[2]), (Row{"backprop", sec(backprop), sec(backprop), "+0.000000"}));
  EXPECT_EQ(cells_of(categories[3]),
            (Row{"collective", sec(collective), sec(slower_collective),
                 printed("%+.6f", (slower_collective - collective).to_double())}));
  EXPECT_NE(diff.find("end-to-end " +
                      printed("%+.6f", (slower.e2e_s() - analysis.e2e_s()).to_double()) + " s"),
            std::string::npos)
      << diff;
}

}  // namespace
}  // namespace fftgrad::telemetry
