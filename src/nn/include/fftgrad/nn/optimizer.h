// SGD with momentum, plus the stepwise learning-rate schedules the paper's
// training setups use (e.g. AlexNet: 0.01 for epochs [0,30), 0.001 for
// [30,60), 0.0001 after).
#pragma once

#include <cstddef>
#include <vector>

#include "fftgrad/nn/network.h"

namespace fftgrad::nn {

class SgdOptimizer {
 public:
  /// Velocity buffers are sized lazily from the network on the first step.
  explicit SgdOptimizer(float momentum = 0.9f) : momentum_(momentum) {}

  /// v = momentum*v + grad; param -= lr * v.
  void step(Network& net, float lr);

  float momentum() const { return momentum_; }

  /// Momentum state, one buffer per parameter tensor (empty before the
  /// first step). Exposed for trainer checkpoint/restore: resuming with
  /// the saved velocity reproduces the uninterrupted run bit-for-bit.
  const std::vector<std::vector<float>>& velocity() const { return velocity_; }
  void set_velocity(std::vector<std::vector<float>> velocity) {
    velocity_ = std::move(velocity);
  }

 private:
  float momentum_;
  std::vector<std::vector<float>> velocity_;
};

/// Piecewise-constant learning-rate schedule: rate(e) is the value of the
/// last boundary not exceeding epoch e.
class StepLrSchedule {
 public:
  struct Stage {
    std::size_t start_epoch;
    float lr;
  };
  explicit StepLrSchedule(std::vector<Stage> stages);
  float at(std::size_t epoch) const;

 private:
  std::vector<Stage> stages_;
};

}  // namespace fftgrad::nn
