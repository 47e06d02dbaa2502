// Monitor-driven automatic remediation: the decision layer between the run
// ledger's health monitors and the trainer's knobs.
//
// The ledger (fftgrad/telemetry/ledger.h) detects trouble — non-finite
// gradients or loss, a collapsed compression ratio, a diverging
// error-feedback residual — but only reports it. The RecoveryController
// closes the loop: fed the cluster-agreed condition flags once per
// iteration, it decides which remedy the trainer applies before the next
// step:
//
//   nan_gradient / nonfinite_loss  ->  kRollback       restore the last
//                                      in-memory snapshot (params, momentum,
//                                      EF residual)
//   ratio_collapse (streak)        ->  kCodecFallback  switch to the lossless
//                                      codec for the rest of the run
//   residual_growth                ->  kThetaRelax     multiply theta by
//                                      kThetaRelaxFactor (keep more
//                                      coefficients)
//
// Every remediation becomes a ledger `remediation` row carrying the cause,
// the action, its simulated cost, and the iterations the condition took to
// clear — drained via drain_closed()/finish() so a row is written exactly
// once per event, when its outcome is known.
//
// Determinism contract: the controller is pure state-machine logic over the
// flags it is fed. Ranks that feed identical flag sequences (the trainer
// allreduces the per-rank observations first) take identical actions at
// identical iterations, so replicas stay bit-identical through any remedy.
//
// Thread contract: single-threaded by design — one controller instance per
// rank, driven only from that rank's training loop. It holds no mutex and
// carries no thread-safety annotations on purpose: adding a lock would
// misrepresent the model (cross-rank agreement comes from feeding identical
// inputs, not from sharing the instance). Do not share one controller
// between threads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/util/units.h"

namespace fftgrad::core {

struct RecoveryPolicy {
  bool enabled = false;
  /// Snapshot (params, momentum, EF residual) every k iterations; rollback
  /// restores the most recent one.
  std::size_t snapshot_every = 8;
  /// Consecutive ratio-collapse iterations before the codec fallback fires.
  std::size_t ratio_collapse_streak = 3;
};

/// Theta multiplier applied by kThetaRelax (theta is the fraction of
/// information *dropped*, so < 1 relaxes the compression).
inline constexpr double kThetaRelaxFactor = 0.5;

enum class RemedyAction { kNone, kRollback, kCodecFallback, kThetaRelax };

/// Stable action name used in ledger rows ("rollback", "codec_fallback",
/// "theta_relax", "none").
const char* remedy_action_name(RemedyAction action);

/// Cluster-agreed condition flags for one iteration: each rank's
/// telemetry::run_health() of its iteration row, OR-ed across ranks by the
/// trainer's allreduce so every rank feeds the same values.
using RecoverySignals = telemetry::RunHealth;

class RecoveryController {
 public:
  explicit RecoveryController(RecoveryPolicy policy);

  const RecoveryPolicy& policy() const { return policy_; }

  /// Feed iteration `iter`'s flags; returns the actions to apply before the
  /// next step (usually empty). Opens a pending remediation per action.
  std::vector<RemedyAction> step(std::uint64_t iter, const RecoverySignals& signals);

  /// Charge simulated time spent executing the most recently opened
  /// remediation (e.g. the snapshot-restore or state-transfer cost).
  void charge(util::SimSeconds cost);

  /// Remediations whose condition has cleared since the last drain, ready
  /// to be written as ledger rows (recovered = true).
  std::vector<telemetry::LedgerRemediation> drain_closed();

  /// Close every still-pending remediation at end of run
  /// (recovered = false) and return the rows.
  std::vector<telemetry::LedgerRemediation> finish(std::uint64_t final_iteration);

  /// Whether the lossless-codec fallback has been applied.
  bool fallback_active() const { return fallback_active_; }
  /// Remediations opened so far (pending + closed).
  std::size_t remediations_total() const { return total_; }

  /// Decision-state sync for a rank rejoining mid-run: the collapse
  /// streak, the fallback flag, and the pending set — everything that
  /// influences *future* actions, so a rejoiner loaded with the donor's
  /// state takes the same remedies at the same iterations from then on.
  /// Reporting state (closed rows, totals) stays local and is not carried.
  std::vector<std::uint8_t> save_decision_state() const;
  /// Throws std::runtime_error on a truncated or malformed blob.
  void load_decision_state(std::span<const std::uint8_t> blob);

 private:
  void open(std::uint64_t iter, const char* cause, RemedyAction action);

  struct Pending {
    std::uint64_t iteration = 0;
    const char* cause = "";
    RemedyAction action = RemedyAction::kNone;
    util::SimSeconds cost_s{};
  };

  RecoveryPolicy policy_;
  std::size_t collapse_streak_ = 0;
  bool fallback_active_ = false;
  std::size_t total_ = 0;
  std::vector<Pending> pending_;
  std::vector<telemetry::LedgerRemediation> closed_;
};

}  // namespace fftgrad::core
