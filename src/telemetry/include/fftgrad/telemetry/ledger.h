// Run ledger: a structured JSONL event stream reconciling the analytic
// cost model against what the simulation actually charged, per iteration.
//
// One ledger file per process (FFTGRAD_LEDGER=<path>, wired by
// telemetry::init_from_env()); one *run* per trainer invocation inside it.
// A run opens with a `manifest` row (trainer, compressor, ranks, seed,
// network parameters, build preset), then records one `iteration` row per
// training step — phase wall times, per-collective predicted-vs-charged
// communication cost with retry/fault counts, gradient round-trip quality
// (the Assumption-3.2 alpha, rms/max reconstruction error, wire ratio,
// optionally per-layer), error-feedback residual norm, and loss — and
// closes with a `summary` row aggregating the run.
//
// Reconciliation contract: `predicted_s` is the analytic cost the
// NetworkModel/RetryPolicy formulas assign to the observed message sizes
// (including *expected* retransmission and backoff on a faulty plan);
// `charged_s` is what the per-rank SimClock actually advanced. On a
// lossless run the two must agree exactly (same formula, same inputs); on
// a faulty run they differ only by sampled-vs-expected recovery, which the
// drift monitor's rolling window averages out.
//
// Health monitors run on every iteration row and fire alerts:
//   nan_gradient     gradient norm is NaN/Inf
//   nonfinite_loss   training loss is NaN/Inf
//   alpha_bound      alpha >= bound (Theorem 3.3 needs alpha < 1 to
//                    contract; default bound 1.0)
//   ratio_collapse   achieved compression ratio fell below min_ratio
//   model_drift      rolling |charged - predicted| / predicted exceeded
//                    drift_rel_tol for some collective kind
//   residual_growth  EF residual norm exceeded residual_growth_factor x
//                    the gradient norm (error feedback diverging)
// Each alert writes an `alert` row, logs at WARN, bumps the internal
// per-monitor count plus the `ledger.alerts.<monitor>` metrics counter,
// and — in FFTGRAD_ANALYSIS builds, unless set_abort_on_alert(false) —
// aborts the process, mirroring the analysis layer's violation semantics.
//
// Cost when disabled (the default): every hook is gated on one relaxed
// atomic load and performs no allocation and no IO; instrumentation stays
// compiled into the trainers and SimCluster unconditionally. Callers
// should still guard any work spent *building* a row with enabled().
//
// Threading: hooks may be called from any thread (SimCluster rank 0's
// thread records collectives and iteration rows); a single internal mutex
// serializes buffered state and file writes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fftgrad/util/annotated_mutex.h"
#include "fftgrad/util/thread_annotations.h"
#include "fftgrad/util/units.h"

namespace fftgrad::telemetry {

/// Network parameters echoed into the manifest so a report can interpret
/// the predicted costs without the originating NetworkModel.
struct LedgerNetworkInfo {
  std::string name;
  util::SimSeconds latency_s{};
  util::BytesPerSecond bandwidth_bytes_s{};
  double loss_rate = 0.0;
};

struct LedgerManifest {
  std::string trainer;     ///< "cluster_train" | "distributed_trainer" | test tag
  std::string compressor;  ///< codec name() of rank 0's instance
  std::size_t ranks = 0;
  std::size_t iterations = 0;  ///< planned iterations (epochs x iters for the trainer)
  std::uint64_t seed = 0;
  LedgerNetworkInfo network;
  /// Per-attempt transport failure probability of the active FaultPlan
  /// (0 when fault-free); documents why charged may exceed the lossless
  /// analytic cost.
  double fault_rate = 0.0;
};

/// One collective's model-vs-measured pairing. `predicted_s` must include
/// the RetryPolicy expected-cost terms when the run carries transport
/// faults, so lossless runs reconcile exactly and faulty runs reconcile in
/// expectation.
struct LedgerCollective {
  const char* kind = "";  ///< "allgather", "allreduce", ... (static storage)
  std::uint64_t op = 0;   ///< collective index (or trainer iteration)
  util::Bytes bytes{};    ///< payload entering the collective
  util::SimSeconds predicted_s{};
  util::SimSeconds charged_s{};
  /// Sec 3.3 paper-model communication cost (Eq. 2) for the same exchange,
  /// when the caller computed one; 0 means "not modelled".
  util::SimSeconds paper_model_s{};
  std::uint64_t retries = 0;  ///< retransmissions observed by the recording rank
  std::uint64_t failed = 0;   ///< excluded or undeliverable contributions
};

/// Critical-path summary appended after a run by the analyzer (see
/// fftgrad/telemetry/critical_path.h): the per-category attribution of the
/// simulated end-to-end time plus the overlap upper bounds. Recorded as a
/// `critpath` row tied to the most recent run.
struct LedgerCritpath {
  std::uint64_t iterations = 0;
  util::SimSeconds e2e_s{};
  util::SimSeconds compute_s{};
  util::SimSeconds comm_s{};
  double comm_share = 0.0;  ///< dimensionless fraction of e2e_s
  util::SimSeconds overlap_bound_s{};
  util::SimSeconds pipeline_bound_s{};
  /// (category name, simulated time on the critical path), analyzer order.
  std::vector<std::pair<std::string, util::SimSeconds>> category_s;
};

/// One automatic remediation taken by a recovery controller (see
/// fftgrad/core/recovery.h): which monitor condition caused it, what action
/// was applied, what it cost in simulated time, and how many iterations the
/// condition took to clear. Recorded as a `remediation` row when the
/// condition clears (or at end of run with recovered=false).
struct LedgerRemediation {
  std::uint64_t iteration = 0;  ///< iteration the action was applied
  std::string cause;            ///< monitor name ("nan_gradient", ...)
  std::string action;           ///< "rollback" | "codec_fallback" | "theta_relax"
  util::SimSeconds cost_s{};    ///< simulated time spent executing the remedy
  std::uint64_t iterations_to_recover = 0;  ///< applied -> signal cleared
  bool recovered = false;       ///< the signal cleared before the run ended
};

/// Per-layer reconstruction quality (alpha/rms/max over the layer's slice
/// of the flat gradient; the wire ratio does not decompose per layer).
struct LedgerLayerStats {
  std::string name;
  double alpha = 0.0;
  double rms_error = 0.0;
  double max_error = 0.0;
};

struct LedgerIteration {
  std::uint64_t iteration = 0;
  double loss = 0.0;  ///< recording rank's training loss
  util::SimSeconds sim_time_s{};  ///< cumulative simulated time after this step
  // Phase wall times of the recording rank / the modelled split. These are
  // host measurements, deliberately WallSeconds: they never mix with the
  // simulated-clock fields without an explicit conversion.
  util::WallSeconds forward_s{};
  util::WallSeconds backward_s{};
  util::WallSeconds compress_s{};
  util::WallSeconds decompress_s{};
  double grad_norm = 0.0;  ///< ||g|| before compression
  // Whole-gradient round-trip quality (RoundTripStats semantics).
  double alpha = 0.0;
  double ratio = 0.0;
  double rms_error = 0.0;
  double max_error = 0.0;
  util::Bytes wire_bytes{};          ///< compressed packet bytes this rank sent
  double ef_residual_norm = -1.0;    ///< <0: codec carries no residual
  std::uint64_t skipped_peers = 0;   ///< contributions skipped this step
  std::vector<LedgerLayerStats> layers;  ///< optional per-layer breakdown
};

/// Monitor thresholds. Programs run with these defaults; tests set their
/// own through RunLedger::set_tolerances.
struct LedgerTolerances {
  double alpha_bound = 1.0;
  double min_ratio = 1.0;
  double drift_rel_tol = 0.25;
  std::size_t drift_window = 16;  ///< iterations averaged before drift fires
  double residual_growth_factor = 100.0;
};

class RunLedger {
 public:
  static RunLedger& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Open `path` for appending JSONL rows and enable the ledger. Returns
  /// false (and logs) when the file cannot be opened.
  bool open(const std::string& path);
  /// Flush, close, and disable. Idempotent; also runs at exit via
  /// init_from_env's hook.
  void close();

  void set_tolerances(const LedgerTolerances& tolerances);
  LedgerTolerances tolerances() const;
  /// In FFTGRAD_ANALYSIS builds alerts abort by default; monitor tests
  /// disable that to assert on counts instead. No-op in release builds.
  void set_abort_on_alert(bool abort_on_alert);

  /// Start a run: writes the manifest row, resets per-run monitor state,
  /// and returns the run id stamped on every subsequent row. Returns 0
  /// when disabled.
  std::uint64_t begin_run(const LedgerManifest& manifest);
  /// Write the run's `summary` row (totals, per-kind reconciliation, alert
  /// counts). No-op when disabled or no run is open.
  void end_run();

  /// Buffer one collective pairing; drained into the next iteration row.
  void record_collective(const LedgerCollective& sample);
  /// Write a `critpath` summary row. Usually called after end_run() (the
  /// analyzer runs on the finished trace); the row is stamped with the
  /// most recent run id either way.
  void record_critpath(const LedgerCritpath& row);
  /// Write the iteration row (with the buffered collectives) and run the
  /// health monitors on it.
  void end_iteration(const LedgerIteration& row);
  /// Write a `remediation` row and bump the per-action count reported in
  /// the summary row (and the `ledger.remediations.<action>` counter).
  void record_remediation(const LedgerRemediation& row);

  /// Alerts fired since the current run began (all monitors / one monitor).
  std::size_t alerts_total() const;
  std::size_t alerts(const std::string& monitor) const;

  /// Bytes written to the ledger file since open() (0 when disabled) —
  /// lets tests assert the disabled path never touches the file.
  std::size_t bytes_written() const;

 private:
  RunLedger() = default;

  void write_line_locked(const std::string& line) FFTGRAD_REQUIRES(mutex_);
  void alert_locked(const char* monitor, std::uint64_t iteration, double value,
                    double bound, const std::string& message) FFTGRAD_REQUIRES(mutex_);
  void run_monitors_locked(const LedgerIteration& row) FFTGRAD_REQUIRES(mutex_);

  std::atomic<bool> enabled_{false};
  mutable util::Mutex mutex_;
  void* file_ FFTGRAD_PT_GUARDED_BY(mutex_) FFTGRAD_GUARDED_BY(mutex_) =
      nullptr;  ///< std::FILE*, kept opaque in the header
  std::size_t bytes_written_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  LedgerTolerances tolerances_ FFTGRAD_GUARDED_BY(mutex_);
  bool abort_on_alert_ FFTGRAD_GUARDED_BY(mutex_) = true;

  std::uint64_t next_run_id_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  std::uint64_t run_id_ FFTGRAD_GUARDED_BY(mutex_) = 0;  ///< 0: no run open
  std::uint64_t rows_this_run_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  std::vector<LedgerCollective> pending_collectives_ FFTGRAD_GUARDED_BY(mutex_);
  std::map<std::string, std::size_t> alert_counts_ FFTGRAD_GUARDED_BY(mutex_);
  std::map<std::string, std::size_t> remediation_counts_ FFTGRAD_GUARDED_BY(mutex_);

  /// Rolling per-kind reconciliation state for the drift monitor plus the
  /// run-lifetime totals reported in the summary row.
  struct KindTotals {
    util::SimSeconds predicted_s{};
    util::SimSeconds charged_s{};
    std::uint64_t count = 0;
    std::uint64_t retries = 0;
    std::uint64_t failed = 0;
    // Rolling window of per-iteration (predicted, charged) sums.
    std::vector<std::pair<util::SimSeconds, util::SimSeconds>> window;
    std::size_t window_at = 0;
  };
  std::map<std::string, KindTotals> kinds_ FFTGRAD_GUARDED_BY(mutex_);
};

// ---------------------------------------------------------------------------
// Reader side: a minimal JSON parser plus ledger-file loading and schema
// validation, shared by the run_report tool and tests/test_ledger.cpp.

/// Minimal JSON document model (objects keep insertion order).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Convenience accessors with fallbacks for optional members.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;
};

/// Parse one JSON document. Throws std::runtime_error with an offset on
/// malformed input or trailing garbage.
JsonValue parse_json(std::string_view text);

/// One run reconstructed from a ledger file.
struct LedgerRun {
  JsonValue manifest;
  std::vector<JsonValue> iterations;
  std::vector<JsonValue> alerts;
  std::vector<JsonValue> remediations;  ///< recovery-controller actions
  JsonValue summary;   ///< kNull when the run was cut off before end_run()
  JsonValue critpath;  ///< kNull when no critical-path row was recorded
};

/// Load every run from a ledger JSONL file. Throws std::runtime_error on
/// IO failure or a line that does not parse as JSON.
std::vector<LedgerRun> read_ledger_file(const std::string& path);

/// Schema check over loaded runs: required fields present with the right
/// types, iteration rows numbered consecutively, collectives well-formed.
/// Returns human-readable problems; empty means the ledger is valid.
std::vector<std::string> validate_ledger(const std::vector<LedgerRun>& runs);

}  // namespace fftgrad::telemetry
