// Named metrics registry: counters, gauges, and sample histograms with
// thread-safe updates and JSON export.
//
// Metric objects are created on first lookup and are never destroyed or
// moved, so call sites may cache references (including in function-local
// statics) across reset()s. Updates are gated on the registry-wide enabled
// flag — one relaxed atomic load — so instrumentation in hot paths (the
// thread pool's per-task accounting, the codecs) costs nothing in normal
// runs and only accumulates when telemetry is switched on.
//
// Metric names used across the framework (units in brackets):
//   comm.<collective>.calls   collective invocations per kind        [count]
//   comm.bytes_sent           payload bytes entering collectives     [bytes]
//   codec.raw_bytes           uncompressed gradient bytes compressed [bytes]
//   codec.wire_bytes          compressed packet bytes produced       [bytes]
//   codec.ratio               per-packet compression ratio           [x]
//   trainer.iterations        training iterations completed          [count]
//   trainer.wire_bytes        per-rank wire bytes (paper-scale-aware)[bytes]
//   trainer.alpha             Assumption-3.2 relative error alpha    [ratio]
//   trainer.checkpoints_saved    checkpoints captured by train()     [count]
//   trainer.checkpoints_restored runs resumed from a checkpoint      [count]
//   trainer.peers_skipped     peer packets skipped (missing/corrupt) [count]
//   trainer.degraded_iterations  iterations averaged over < p ranks  [count]
//   pool.tasks                tasks submitted to the thread pool     [count]
//   pool.queue_depth          queue length observed at submit        [tasks]
//   pool.task_latency_us      submit-to-start task latency           [us]
//   fault.rank_crashes        ranks lost to FaultPlan crashes        [count]
//   fault.straggle_seconds    simulated straggler slowdown charged   [s]
//   fault.late_contributions  contributions excluded by the timeout  [count]
//   fault.retransmits         packet retransmissions triggered       [count]
//   fault.retransmit_bytes    retransmitted + duplicated bytes       [bytes]
//   fault.recovery_seconds    simulated retry/backoff/delay time     [s]
//   fault.deliveries_failed   deliveries still broken after retries  [count]
//   analysis.violations       invariant violations reported          [count]
//   analysis.hb_checks        happens-before edges verified          [count]
//   analysis.epoch_checks     collective-epoch matches verified      [count]
//   analysis.agreement_checks cross-rank agreement values checked    [count]
//   ledger.alerts.<monitor>   run-ledger health alerts per monitor   [count]
//       (monitors: nan_gradient, nonfinite_loss, alpha_bound,
//        ratio_collapse, model_drift, residual_growth — see
//        fftgrad/telemetry/ledger.h)
//   profile.samples           host-time stack samples captured       [count]
//   profile.dropped           samples lost to full rings             [count]
//   profile.truncated         stacks deeper than the capture limit   [count]
//   profile.threads           threads registered for sampling        [count]
//   profile.hz                configured SIGPROF sampling rate       [Hz]
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "fftgrad/util/annotated_mutex.h"
#include "fftgrad/util/thread_annotations.h"

namespace fftgrad::telemetry {

class MetricsRegistry;

/// Monotonically increasing sum (doubles, so byte totals beyond 2^53 are
/// out of scope — fine for simulated runs).
class Counter {
 public:
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>& enabled) : enabled_(enabled) {}
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

  const std::atomic<bool>& enabled_;
  std::atomic<double> value_{0.0};
};

/// Last-written value (e.g. queue depth at submit time).
class Gauge {
 public:
  void set(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>& enabled) : enabled_(enabled) {}
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

  const std::atomic<bool>& enabled_;
  std::atomic<double> value_{0.0};
};

/// Exact sample histogram: stores every observation (mutex-guarded), so
/// quantiles are the true order statistics, not bucket approximations.
class Histogram {
 public:
  void observe(double value);

  struct Summary {
    std::size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  Summary summarize() const;

  /// Smallest sample x with (rank of x) / count >= q; q in [0, 1].
  double quantile(double q) const;
  std::size_t count() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>& enabled) : enabled_(enabled) {}
  void reset();
  std::vector<double> sorted_samples() const;

  const std::atomic<bool>& enabled_;
  mutable util::Mutex mutex_;
  std::vector<double> samples_ FFTGRAD_GUARDED_BY(mutex_);
};

class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Lookup-or-create; returned references stay valid for the process
  /// lifetime. A name registered as one kind must not be reused as another.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zero every metric's value; registered objects (and cached references)
  /// survive.
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: summary}}.
  std::string to_json() const;

  /// Write to_json() to `path`; returns false (and logs) on failure.
  bool export_json(const std::string& path) const;

 private:
  MetricsRegistry() = default;

  std::atomic<bool> enabled_{false};
  // Reader/writer split: lookup-or-create mutates the maps (exclusive);
  // reset() and to_json() only traverse them (shared) — the per-metric
  // state they touch is atomic or behind the Histogram's own mutex.
  mutable util::SharedMutex mutex_;
  // std::map: stable addresses are required anyway (values are
  // heap-allocated), and ordered iteration gives deterministic JSON.
  std::map<std::string, Counter*> counters_ FFTGRAD_GUARDED_BY(mutex_);
  std::map<std::string, Gauge*> gauges_ FFTGRAD_GUARDED_BY(mutex_);
  std::map<std::string, Histogram*> histograms_ FFTGRAD_GUARDED_BY(mutex_);
};

}  // namespace fftgrad::telemetry
