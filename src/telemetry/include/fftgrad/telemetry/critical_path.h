// Cross-rank critical-path analyzer for the simulated training timeline.
//
// The span tracer records, for every rank, a set of *leaf* spans with
// category "cp" that partition the rank's simulated clock: modelled compute
// phases (forward/backward/compress/decompress, charged by cluster_train's
// perfmodel::ComputeModel through core::step_charges), collective propagation
// ("collective"), per-sender retransmission recovery ("retry", peer = the
// faulted sender), injected straggler slowdown ("straggle"), and barrier
// waits ("barrier", op = the barrier generation shared by every rank in the
// round). Zero-length "cp-edge" records ("publish"/"consume") materialize
// the causality layer's happens-before edges with simulated timestamps.
//
// analyze_critical_path() walks that event DAG backward from the last rank
// to finish: within a rank it follows the leaf span ending at the cursor;
// at a barrier it jumps to the *bounding* rank — the last arrival of the
// same generation — so barrier idle time is charged to the waiting rank
// only up to the moment the binding rank arrived. When a straggler timeout
// capped the release (every live arrival is earlier than the release), the
// gap is synthesized as a "straggler wait" segment attributed to the
// abandoned rank. The resulting segment chain is contiguous from 0 to the
// end of the run, so per-iteration category times sum to the simulated
// end-to-end time by construction (acceptance: within 1e-6).
//
// Two closed-form upper bounds on what ROADMAP's layer-wise
// communication/computation overlap (DGC-style) could win are computed per
// iteration from the path segments alone:
//   overlap_bound_s  = min(compute on path, comm on path) — the
//                      perfect-chunking limit;
//   pipeline_bound_s = e2e - other - flowshop(compute segs, comm segs),
//                      a FIFO two-machine pipeline where comm chunk j may
//                      start once the j-th compute segment has finished.
//                      Exact on a 2-layer pipeline (see tests).
// The pipeline bound counts each compute leaf span on the path as one
// pipeline stage, so it depends on how finely the trainer splits its
// compute into spans, not only on the seconds: splitting one compute span
// into two halves leaves e2e, the category totals and the overlap bound
// as they were and can raise the pipeline bound (see tests). On the
// chaos_training run the same 0.396 s of compute read 0.024742 s as eight
// spans per iteration and 0.007895 s as four.
//
// The analysis is read from an exported Chrome trace by examples/run_report
// (`--trace`: report, diff, ledger reconciliation, `--check`), which renders
// it with render_critpath_report/render_critpath_diff and checks it with
// the analysis layer's validate_critical_path (structural + happens-before
// checks).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/trace.h"

namespace fftgrad::telemetry {

/// Categories every nanosecond of the critical path is attributed to.
enum class CpCategory : int {
  kBackprop = 0,   ///< forward/backward modelled compute
  kCodec,          ///< the codec's modelled compress + decompress
  kCollective,     ///< lossless collective propagation (alpha-beta model)
  kRetry,          ///< retransmission/backoff recovery time
  kStraggle,       ///< injected straggler slowdown on the bounding rank
  kStragglerWait,  ///< timeout-capped wait for an abandoned straggler
  kBarrierIdle,    ///< waiting in a barrier for the bounding rank
  kUntracked,      ///< simulated time not covered by any "cp" leaf span
  kCount
};

inline constexpr std::size_t kCpCategoryCount = static_cast<std::size_t>(CpCategory::kCount);

/// Stable lower-case name ("backprop", "codec", ...), used in the report
/// and in run_report's host-profile cross-reference.
const char* cp_category_name(CpCategory category);

/// One event extracted from the tracer (or a Chrome-JSON export): either a
/// "cp" leaf span or a zero-length "cp-edge" publish/consume record.
struct CpEvent {
  std::int32_t rank = -1;
  std::string name;
  util::SimSeconds start_s{};
  util::SimSeconds end_s{};
  std::int64_t iteration = -1;
  std::int64_t op = -1;    ///< collective index / barrier generation
  std::int32_t peer = -1;  ///< attributed peer rank (retry sender, ...)
  bool edge = false;       ///< true for publish/consume cp-edge records
};

/// Extract the cp events of one simulated session from tracer records.
std::vector<CpEvent> cp_events_from_records(const std::vector<SpanRecord>& records,
                                            std::uint32_t sim_session);

/// Latest simulated session id present in the records (0 when none).
std::uint32_t latest_sim_session(const std::vector<SpanRecord>& records);

/// Extract cp events from an exported Chrome trace-event JSON file. Picks
/// the newest simulated session (highest sim pid) unless `session` >= 0.
/// Timestamps round-trip at microsecond resolution with %.3f precision,
/// i.e. nanosecond granularity. Throws std::runtime_error on IO/parse
/// problems.
std::vector<CpEvent> cp_events_from_chrome_json(const std::string& path,
                                                std::int64_t session = -1);

/// One contiguous critical-path segment, attributed to `rank`.
struct CpSegment {
  CpCategory category = CpCategory::kUntracked;
  std::int32_t rank = -1;   ///< the rank bounding the path over [start, end]
  util::SimSeconds start_s{};
  util::SimSeconds end_s{};
  std::string name;         ///< originating leaf-span name
  std::int64_t iteration = -1;
  std::int64_t op = -1;
  std::int32_t peer = -1;
};

/// Per-iteration attribution. Segments are contiguous, so
/// sum(category_s) == end_s - start_s exactly (modulo fp addition).
struct CpIteration {
  std::int64_t iteration = -1;
  util::SimSeconds start_s{};
  util::SimSeconds end_s{};
  std::array<util::SimSeconds, kCpCategoryCount> category_s{};
  util::SimSeconds overlap_bound_s{};   ///< min(compute, comm) on the path
  util::SimSeconds pipeline_bound_s{};  ///< e2e - other - flow-shop makespan,
                                        ///< one stage per compute span
  std::vector<CpSegment> path;          ///< in increasing time order

  util::SimSeconds e2e_s() const { return end_s - start_s; }
  util::SimSeconds category_sum_s() const;
  /// Compute on the path: backprop + codec.
  util::SimSeconds compute_s() const;
  /// Communication on the path: collective propagation + retry recovery.
  util::SimSeconds comm_s() const;
  /// comm_s / e2e_s (0 when the window is empty) — comparable to the
  /// fig02 `comm_share` metric on a lossless run.
  double comm_share() const;
};

/// Per-rank totals across the whole analyzed window ("flame" summary).
struct CpRankSummary {
  std::int32_t rank = -1;
  std::array<util::SimSeconds, kCpCategoryCount> busy_s{};  ///< rank-local span time
  util::SimSeconds idle_s{};     ///< barrier idle + uncovered gaps on the rank
  util::SimSeconds on_path_s{};  ///< time this rank bounds the critical path
};

struct CpAnalysis {
  std::vector<CpIteration> iterations;
  std::vector<CpRankSummary> ranks;
  std::array<util::SimSeconds, kCpCategoryCount> total_s{};
  util::SimSeconds end_s{};             ///< simulated end of the analyzed window
  util::SimSeconds overlap_bound_s{};   ///< sum over iterations
  util::SimSeconds pipeline_bound_s{};  ///< sum over iterations
  /// Structural problems found while walking (an unknown leaf span, a rank
  /// without spans, a dangling barrier). Empty on a well-formed trace;
  /// reported by the analysis layer's validator.
  std::vector<std::string> problems;

  util::SimSeconds e2e_s() const { return end_s; }
  util::SimSeconds compute_s() const;
  util::SimSeconds comm_s() const;
  double comm_share() const;
};

/// Build the per-iteration critical path from one session's cp events.
/// Events may arrive in any order. Returns an empty analysis (no
/// iterations) when there are no leaf spans.
CpAnalysis analyze_critical_path(const std::vector<CpEvent>& events);

/// Human-readable report: the end-to-end and bound lines, then one
/// util::TableWriter table each for the category totals, the iterations
/// and the per-rank flame summary, then any problems. Seconds print with
/// six decimals, shares with one.
std::string render_critpath_report(const CpAnalysis& analysis);

/// Cross-run diff of two analyses: a TableWriter table of category
/// seconds before, after and their delta, then the e2e and bound deltas.
std::string render_critpath_diff(const CpAnalysis& before, const CpAnalysis& after);

/// Deterministic structural serialization (fixed-precision numbers), used
/// by the determinism tests: equal strings <=> equal analyses.
std::string serialize_critpath(const CpAnalysis& analysis);

/// Reconciliation of the path's communication time against the ledger's
/// charged collective costs. On a lossless symmetric run the two agree:
/// every rank charges the same collective cost, so comm-on-path equals the
/// recording rank's charged total for the iterations analyzed.
struct CpLedgerReconcile {
  bool compared = false;  ///< false when the run has no collectives
  util::SimSeconds ledger_charged_s{};  ///< sum of charged_s over collective rows
  util::SimSeconds path_comm_s{};       ///< collective + retry time on the path
  util::SimSeconds abs_diff_s{};
  double rel_diff = 0.0;  ///< abs diff / max(ledger, path, eps)
};

CpLedgerReconcile reconcile_with_ledger(const CpAnalysis& analysis, const LedgerRun& run);

}  // namespace fftgrad::telemetry
