#include "fftgrad/core/recovery.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "fftgrad/core/compressor.h"

namespace fftgrad::core {
namespace {

/// Stable cause names, indexed for decision-state serialization.
constexpr const char* kCauses[] = {"nan_gradient", "nonfinite_loss", "ratio_collapse",
                                   "residual_growth"};

std::uint8_t cause_id(const char* cause) {
  for (std::uint8_t i = 0; i < 4; ++i) {
    if (std::strcmp(cause, kCauses[i]) == 0) return i;
  }
  throw std::logic_error(std::string("recovery: unknown cause '") + cause + "'");
}

/// Whether `signals` still shows the condition that opened a pending
/// remediation for `cause`. An active lossless fallback ends a ratio
/// collapse by construction (exact delivery cannot collapse), so its
/// condition reads as cleared.
bool condition_present(const RecoverySignals& signals, const char* cause,
                       bool fallback_active) {
  if (std::strcmp(cause, "nan_gradient") == 0) return signals.nan_gradient;
  if (std::strcmp(cause, "nonfinite_loss") == 0) return signals.nonfinite_loss;
  if (std::strcmp(cause, "ratio_collapse") == 0) {
    return !fallback_active && signals.ratio_collapse;
  }
  if (std::strcmp(cause, "residual_growth") == 0) return signals.residual_growth;
  return false;
}

}  // namespace

const char* remedy_action_name(RemedyAction action) {
  switch (action) {
    case RemedyAction::kRollback: return "rollback";
    case RemedyAction::kCodecFallback: return "codec_fallback";
    case RemedyAction::kThetaRelax: return "theta_relax";
    case RemedyAction::kNone: break;
  }
  return "none";
}

RecoveryController::RecoveryController(RecoveryPolicy policy) : policy_(policy) {}

void RecoveryController::open(std::uint64_t iter, const char* cause, RemedyAction action) {
  pending_.push_back({iter, cause, action, util::SimSeconds{}});
  ++total_;
}

std::vector<RemedyAction> RecoveryController::step(std::uint64_t iter,
                                                   const RecoverySignals& signals) {
  std::vector<RemedyAction> actions;
  if (!policy_.enabled) return actions;

  // Close pendings whose condition has cleared. The applied-iteration row
  // stays pending until a later step shows the signal gone, which is what
  // makes iterations_to_recover meaningful.
  for (std::size_t i = 0; i < pending_.size();) {
    const Pending& p = pending_[i];
    if (iter > p.iteration && !condition_present(signals, p.cause, fallback_active_)) {
      closed_.push_back({p.iteration, p.cause, remedy_action_name(p.action), p.cost_s,
                         iter - p.iteration, true});
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  const auto has_pending = [&](RemedyAction action) {
    for (const Pending& p : pending_) {
      if (p.action == action) return true;
    }
    return false;
  };

  if ((signals.nan_gradient || signals.nonfinite_loss) &&
      !has_pending(RemedyAction::kRollback)) {
    open(iter, signals.nan_gradient ? "nan_gradient" : "nonfinite_loss",
         RemedyAction::kRollback);
    actions.push_back(RemedyAction::kRollback);
  }

  if (signals.ratio_collapse && !fallback_active_) {
    ++collapse_streak_;
    if (collapse_streak_ >= policy_.ratio_collapse_streak) {
      fallback_active_ = true;
      open(iter, "ratio_collapse", RemedyAction::kCodecFallback);
      actions.push_back(RemedyAction::kCodecFallback);
    }
  } else {
    collapse_streak_ = 0;
  }

  if (signals.residual_growth && !has_pending(RemedyAction::kThetaRelax)) {
    open(iter, "residual_growth", RemedyAction::kThetaRelax);
    actions.push_back(RemedyAction::kThetaRelax);
  }

  return actions;
}

void RecoveryController::charge(util::SimSeconds cost) {
  if (!pending_.empty()) pending_.back().cost_s += cost;
}

std::vector<std::uint8_t> RecoveryController::save_decision_state() const {
  std::vector<std::uint8_t> blob;
  wire::put<std::uint64_t>(blob, collapse_streak_);
  wire::put<std::uint8_t>(blob, fallback_active_ ? 1 : 0);
  wire::put<std::uint64_t>(blob, pending_.size());
  for (const Pending& p : pending_) {
    wire::put<std::uint64_t>(blob, p.iteration);
    wire::put<std::uint8_t>(blob, cause_id(p.cause));
    wire::put<std::uint8_t>(blob, static_cast<std::uint8_t>(p.action));
    wire::put<double>(blob, p.cost_s.to_double());
  }
  return blob;
}

void RecoveryController::load_decision_state(std::span<const std::uint8_t> blob) {
  wire::Reader reader(blob);
  const auto streak = reader.get<std::uint64_t>();
  const bool fallback = reader.get<std::uint8_t>() != 0;
  const std::size_t count = reader.get_count(sizeof(std::uint64_t) + 2 + sizeof(double));
  std::vector<Pending> pending;
  pending.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Pending p;
    p.iteration = reader.get<std::uint64_t>();
    const auto cause = reader.get<std::uint8_t>();
    const auto action = reader.get<std::uint8_t>();
    if (cause >= 4 || action > static_cast<std::uint8_t>(RemedyAction::kThetaRelax)) {
      throw std::runtime_error("recovery: malformed decision-state blob");
    }
    p.cause = kCauses[cause];
    p.action = static_cast<RemedyAction>(action);
    p.cost_s = util::SimSeconds(reader.get<double>());
    pending.push_back(p);
  }
  collapse_streak_ = static_cast<std::size_t>(streak);
  fallback_active_ = fallback;
  pending_ = std::move(pending);
}

std::vector<telemetry::LedgerRemediation> RecoveryController::drain_closed() {
  std::vector<telemetry::LedgerRemediation> out;
  out.swap(closed_);
  return out;
}

std::vector<telemetry::LedgerRemediation> RecoveryController::finish(
    std::uint64_t final_iteration) {
  std::vector<telemetry::LedgerRemediation> out = drain_closed();
  for (const Pending& p : pending_) {
    const std::uint64_t waited =
        final_iteration > p.iteration ? final_iteration - p.iteration : 0;
    out.push_back({p.iteration, p.cause, remedy_action_name(p.action), p.cost_s, waited,
                   false});
  }
  pending_.clear();
  return out;
}

}  // namespace fftgrad::core
