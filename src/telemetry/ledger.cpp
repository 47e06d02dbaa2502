#include "fftgrad/telemetry/ledger.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/util/config.h"
#include "fftgrad/util/logging.h"

namespace fftgrad::telemetry {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    // JSON has no NaN/Inf literal; encode as strings so rows stay parseable
    // (the monitors have already flagged the value by the time it lands).
    if (std::isnan(v)) return "\"nan\"";
    return v > 0 ? "\"inf\"" : "\"-inf\"";
  }
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// Build preset tag stamped into manifests: the explicit FFTGRAD_PRESET env
/// wins (scripts export it), else the compile mode is the best guess.
std::string preset_tag() {
  if (const char* env = std::getenv("FFTGRAD_PRESET"); env != nullptr && *env != '\0') {
    return env;
  }
#if FFTGRAD_ANALYSIS
  return "analysis";
#else
  return "release";
#endif
}

}  // namespace

RunLedger& RunLedger::global() {
  static RunLedger* ledger = new RunLedger();  // never destroyed
  return *ledger;
}

bool RunLedger::open(const std::string& path) {
  util::LockGuard<util::Mutex> lock(mutex_);
  if (file_ != nullptr) return true;  // already open
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    util::log_warn() << "ledger: cannot open '" << path << "'; ledger disabled";
    return false;
  }
  file_ = f;
  bytes_written_ = 0;
  enabled_.store(true, std::memory_order_relaxed);
  return true;
}

void RunLedger::close() {
  util::LockGuard<util::Mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  bytes_written_ = 0;
  if (file_ == nullptr) return;
  std::fclose(static_cast<std::FILE*>(file_));
  file_ = nullptr;
}

void RunLedger::set_tolerances(const LedgerTolerances& tolerances) {
  util::LockGuard<util::Mutex> lock(mutex_);
  tolerances_ = tolerances;
  if (tolerances_.drift_window == 0) tolerances_.drift_window = 1;
}

void RunLedger::set_abort_on_alert(bool abort_on_alert) {
  util::LockGuard<util::Mutex> lock(mutex_);
  abort_on_alert_ = abort_on_alert;
}

void RunLedger::write_line_locked(const std::string& line) {
  if (file_ == nullptr) return;
  auto* f = static_cast<std::FILE*>(file_);
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  bytes_written_ += line.size() + 1;
}

std::uint64_t RunLedger::begin_run(const LedgerManifest& manifest) {
  if (!enabled()) return 0;
  util::LockGuard<util::Mutex> lock(mutex_);
  run_id_ = ++next_run_id_;
  rows_this_run_ = 0;
  pending_collectives_.clear();
  alert_counts_.clear();
  remediation_counts_.clear();
  kinds_.clear();

  std::ostringstream out;
  out << "{\"type\":\"manifest\",\"run\":" << run_id_
      << ",\"trainer\":" << json_string(manifest.trainer)
      << ",\"compressor\":" << json_string(manifest.compressor)
      << ",\"ranks\":" << manifest.ranks << ",\"iterations\":" << manifest.iterations
      << ",\"seed\":" << manifest.seed << ",\"preset\":" << json_string(preset_tag())
      << ",\"network\":{\"name\":" << json_string(manifest.network.name)
      << ",\"latency_s\":" << json_number(manifest.network.latency_s.to_double())
      << ",\"bandwidth_bytes_s\":"
      << json_number(manifest.network.bandwidth_bytes_s.to_double())
      << ",\"loss_rate\":" << json_number(manifest.network.loss_rate)
      << "},\"fault_rate\":" << json_number(manifest.fault_rate)
      << ",\"tolerances\":{\"alpha_bound\":" << json_number(kAlphaBound)
      << ",\"min_ratio\":" << json_number(kMinRatio)
      << ",\"drift_rel_tol\":" << json_number(kDriftRelTol)
      << ",\"drift_window\":" << tolerances_.drift_window
      << ",\"residual_growth_factor\":" << json_number(kResidualGrowthFactor)
      << "}}";
  write_line_locked(out.str());
  return run_id_;
}

void RunLedger::end_run() {
  if (!enabled()) return;
  util::LockGuard<util::Mutex> lock(mutex_);
  if (run_id_ == 0) return;

  std::ostringstream out;
  out << "{\"type\":\"summary\",\"run\":" << run_id_ << ",\"iterations\":" << rows_this_run_
      << ",\"collectives\":{";
  bool first = true;
  for (const auto& [kind, totals] : kinds_) {
    out << (first ? "" : ",") << json_string(kind) << ":{\"count\":" << totals.count
        << ",\"predicted_s\":" << json_number(totals.predicted_s.to_double())
        << ",\"charged_s\":" << json_number(totals.charged_s.to_double())
        << ",\"retries\":" << totals.retries << ",\"failed\":" << totals.failed << "}";
    first = false;
  }
  out << "},\"alerts\":{";
  first = true;
  for (const auto& [monitor, count] : alert_counts_) {
    out << (first ? "" : ",") << json_string(monitor) << ":" << count;
    first = false;
  }
  out << "},\"remediations\":{";
  first = true;
  for (const auto& [action, count] : remediation_counts_) {
    out << (first ? "" : ",") << json_string(action) << ":" << count;
    first = false;
  }
  out << "}}";
  write_line_locked(out.str());
  std::fflush(static_cast<std::FILE*>(file_));
  run_id_ = 0;
}

void RunLedger::record_remediation(const LedgerRemediation& row) {
  if (!enabled()) return;
  util::LockGuard<util::Mutex> lock(mutex_);
  ++remediation_counts_[row.action];
  MetricsRegistry::global().counter("ledger.remediations." + row.action).add(1.0);
  util::log_warn() << "ledger: remediation [" << row.cause << " -> " << row.action
                   << "] applied at iteration " << row.iteration << ", "
                   << (row.recovered ? "recovered after " : "not recovered within ")
                   << row.iterations_to_recover << " iteration(s)";
  std::ostringstream out;
  out << "{\"type\":\"remediation\",\"run\":" << run_id_ << ",\"iter\":" << row.iteration
      << ",\"cause\":" << json_string(row.cause) << ",\"action\":" << json_string(row.action)
      << ",\"cost_s\":" << json_number(row.cost_s.to_double())
      << ",\"iterations_to_recover\":" << row.iterations_to_recover
      << ",\"recovered\":" << (row.recovered ? "true" : "false") << "}";
  write_line_locked(out.str());
}

void RunLedger::record_collective(const LedgerCollective& sample) {
  if (!enabled()) return;
  util::LockGuard<util::Mutex> lock(mutex_);
  pending_collectives_.push_back(sample);
}

void RunLedger::record_critpath(const LedgerCritpath& row) {
  if (!enabled()) return;
  util::LockGuard<util::Mutex> lock(mutex_);
  // The analyzer runs after end_run() closed the run; attribute the row to
  // the most recently opened run either way.
  const std::uint64_t run = run_id_ != 0 ? run_id_ : next_run_id_;
  std::ostringstream out;
  out << "{\"type\":\"critpath\",\"run\":" << run << ",\"iterations\":" << row.iterations
      << ",\"e2e_s\":" << json_number(row.e2e_s.to_double())
      << ",\"compute_s\":" << json_number(row.compute_s.to_double())
      << ",\"comm_s\":" << json_number(row.comm_s.to_double())
      << ",\"comm_share\":" << json_number(row.comm_share)
      << ",\"overlap_bound_s\":" << json_number(row.overlap_bound_s.to_double())
      << ",\"pipeline_bound_s\":" << json_number(row.pipeline_bound_s.to_double())
      << ",\"categories\":{";
  bool first = true;
  for (const auto& [name, seconds] : row.category_s) {
    out << (first ? "" : ",") << json_string(name) << ":"
        << json_number(seconds.to_double());
    first = false;
  }
  out << "}}";
  write_line_locked(out.str());
  if (file_ != nullptr) std::fflush(static_cast<std::FILE*>(file_));
}

void RunLedger::alert_locked(const char* monitor, std::uint64_t iteration, double value,
                             double bound, const std::string& message) {
  ++alert_counts_[monitor];
  {
    // The registry counter only accumulates when metrics collection is on;
    // the ledger's own alert_counts_ are authoritative either way.
    MetricsRegistry& registry = MetricsRegistry::global();
    registry.counter(std::string("ledger.alerts.") + monitor).add(1.0);
  }
  util::log_warn() << "ledger: [" << monitor << "] iteration " << iteration << ": " << message;
  std::ostringstream out;
  out << "{\"type\":\"alert\",\"run\":" << run_id_ << ",\"iter\":" << iteration
      << ",\"monitor\":" << json_string(monitor) << ",\"value\":" << json_number(value)
      << ",\"bound\":" << json_number(bound) << ",\"message\":" << json_string(message)
      << "}";
  write_line_locked(out.str());
#if FFTGRAD_ANALYSIS
  if (abort_on_alert_) {
    std::fflush(static_cast<std::FILE*>(file_));
    std::fprintf(stderr, "fftgrad-ledger: [%s] %s\n", monitor, message.c_str());
    std::abort();
  }
#endif
}

RunHealth run_health(const LedgerIteration& row) {
  RunHealth health;
  health.nan_gradient = !std::isfinite(row.grad_norm);
  health.nonfinite_loss = !std::isfinite(row.loss);
  health.ratio_collapse = row.ratio > 0.0 && row.ratio < kMinRatio;
  health.residual_growth = row.ef_residual_norm >= 0.0 && std::isfinite(row.grad_norm) &&
                           row.ef_residual_norm > kResidualGrowthFactor * row.grad_norm &&
                           row.ef_residual_norm > 0.0;
  return health;
}

void RunLedger::run_monitors_locked(const LedgerIteration& row) {
  const RunHealth health = run_health(row);
  std::ostringstream msg;
  if (health.nan_gradient) {
    msg << "gradient norm is non-finite (" << row.grad_norm << ")";
    alert_locked("nan_gradient", row.iteration, row.grad_norm, 0.0, msg.str());
  }
  if (health.nonfinite_loss) {
    msg.str({});
    msg << "training loss is non-finite (" << row.loss << ")";
    alert_locked("nonfinite_loss", row.iteration, row.loss, 0.0, msg.str());
  }
  if (!(row.alpha < kAlphaBound)) {  // catches NaN alpha too
    msg.str({});
    msg << "alpha " << row.alpha << " exceeds the Theorem-3.3 bound " << kAlphaBound
        << " (compression error no longer contracts)";
    alert_locked("alpha_bound", row.iteration, row.alpha, kAlphaBound, msg.str());
  }
  if (health.ratio_collapse) {
    msg.str({});
    msg << "compression ratio collapsed to " << row.ratio << " (< " << kMinRatio
        << "x): the codec is expanding the gradient";
    alert_locked("ratio_collapse", row.iteration, row.ratio, kMinRatio, msg.str());
  }
  if (health.residual_growth) {
    msg.str({});
    msg << "EF residual norm " << row.ef_residual_norm << " exceeds " << kResidualGrowthFactor
        << "x the gradient norm " << row.grad_norm << " (error feedback diverging)";
    alert_locked("residual_growth", row.iteration, row.ef_residual_norm,
                 kResidualGrowthFactor * row.grad_norm, msg.str());
  }

  // Model drift: per collective kind, a rolling window of per-iteration
  // (predicted, charged) sums; once the window is full, the relative gap of
  // the window totals must stay within kDriftRelTol. Averaging over the
  // window is what lets a sampled 5%-drop run reconcile against the
  // RetryPolicy *expected*-cost terms without per-op noise firing alerts.
  for (auto& [kind, totals] : kinds_) {
    if (totals.window.size() < tolerances_.drift_window) continue;
    util::SimSeconds predicted{};
    util::SimSeconds charged{};
    for (const auto& [p, c] : totals.window) {
      predicted += p;
      charged += c;
    }
    if (predicted <= util::SimSeconds(0.0)) continue;
    const double drift = std::fabs((charged - predicted) / predicted);
    if (drift > kDriftRelTol) {
      msg.str({});
      msg << kind << ": rolling predicted-vs-charged drift " << drift << " exceeds "
          << kDriftRelTol << " (window " << tolerances_.drift_window
          << ", predicted " << predicted.to_double() << "s, charged " << charged.to_double()
          << "s)";
      alert_locked("model_drift", row.iteration, drift, kDriftRelTol, msg.str());
      totals.window.clear();  // re-arm after a full fresh window, not every row
      totals.window_at = 0;
    }
  }
}

void RunLedger::end_iteration(const LedgerIteration& row) {
  if (!enabled()) return;
  util::LockGuard<util::Mutex> lock(mutex_);

  std::ostringstream out;
  out << "{\"type\":\"iteration\",\"run\":" << run_id_ << ",\"iter\":" << row.iteration
      << ",\"loss\":" << json_number(row.loss)
      << ",\"sim_time_s\":" << json_number(row.sim_time_s.to_double())
      << ",\"phases\":{\"forward_s\":" << json_number(row.forward_s.to_double())
      << ",\"backward_s\":" << json_number(row.backward_s.to_double())
      << ",\"compress_s\":" << json_number(row.compress_s.to_double())
      << ",\"decompress_s\":" << json_number(row.decompress_s.to_double())
      << "},\"collectives\":[";
  // Per-kind, per-iteration reconciliation sums feed the drift monitor.
  std::map<std::string, std::pair<util::SimSeconds, util::SimSeconds>> iteration_sums;
  for (std::size_t i = 0; i < pending_collectives_.size(); ++i) {
    const LedgerCollective& c = pending_collectives_[i];
    out << (i == 0 ? "" : ",") << "{\"kind\":" << json_string(c.kind) << ",\"op\":" << c.op
        << ",\"bytes\":" << json_number(c.bytes.to_double())
        << ",\"predicted_s\":" << json_number(c.predicted_s.to_double())
        << ",\"charged_s\":" << json_number(c.charged_s.to_double());
    if (c.paper_model_s > util::SimSeconds(0.0)) {
      out << ",\"paper_model_s\":" << json_number(c.paper_model_s.to_double());
    }
    out << ",\"retries\":" << c.retries << ",\"failed\":" << c.failed << "}";
    KindTotals& totals = kinds_[c.kind];
    totals.predicted_s += c.predicted_s;
    totals.charged_s += c.charged_s;
    totals.count += 1;
    totals.retries += c.retries;
    totals.failed += c.failed;
    auto& [p, ch] = iteration_sums[c.kind];
    p += c.predicted_s;
    ch += c.charged_s;
  }
  out << "],\"roundtrip\":{\"alpha\":" << json_number(row.alpha)
      << ",\"ratio\":" << json_number(row.ratio)
      << ",\"rms_error\":" << json_number(row.rms_error)
      << ",\"max_error\":" << json_number(row.max_error)
      << ",\"wire_bytes\":" << json_number(row.wire_bytes.to_double()) << "}"
      << ",\"grad_norm\":" << json_number(row.grad_norm);
  if (row.ef_residual_norm >= 0.0) {
    out << ",\"ef_residual_norm\":" << json_number(row.ef_residual_norm);
  }
  out << ",\"skipped_peers\":" << row.skipped_peers;
  if (!row.layers.empty()) {
    out << ",\"layers\":[";
    for (std::size_t i = 0; i < row.layers.size(); ++i) {
      const LedgerLayerStats& layer = row.layers[i];
      out << (i == 0 ? "" : ",") << "{\"name\":" << json_string(layer.name)
          << ",\"alpha\":" << json_number(layer.alpha)
          << ",\"rms_error\":" << json_number(layer.rms_error)
          << ",\"max_error\":" << json_number(layer.max_error) << "}";
    }
    out << "]";
  }
  out << "}";
  write_line_locked(out.str());
  pending_collectives_.clear();
  ++rows_this_run_;

  // Advance the drift windows with this iteration's sums before judging.
  for (const auto& [kind, sums] : iteration_sums) {
    KindTotals& totals = kinds_[kind];
    if (totals.window.size() < tolerances_.drift_window) {
      totals.window.push_back(sums);
    } else {
      totals.window[totals.window_at] = sums;
      totals.window_at = (totals.window_at + 1) % tolerances_.drift_window;
    }
  }
  run_monitors_locked(row);
}

std::size_t RunLedger::alerts_total() const {
  util::LockGuard<util::Mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [monitor, count] : alert_counts_) total += count;
  return total;
}

std::size_t RunLedger::alerts(const std::string& monitor) const {
  util::LockGuard<util::Mutex> lock(mutex_);
  const auto it = alert_counts_.find(monitor);
  return it == alert_counts_.end() ? 0 : it->second;
}

std::size_t RunLedger::bytes_written() const {
  util::LockGuard<util::Mutex> lock(mutex_);
  return bytes_written_;
}

}  // namespace fftgrad::telemetry
