#include "fftgrad/nn/optimizer.h"

#include <stdexcept>

namespace fftgrad::nn {

void SgdOptimizer::step(Network& net, float lr) {
  auto params = net.params();
  if (velocity_.empty()) {
    velocity_.resize(params.size());
    for (std::size_t p = 0; p < params.size(); ++p) {
      velocity_[p].assign(params[p].value->size(), 0.0f);
    }
  }
  if (velocity_.size() != params.size()) {
    throw std::logic_error("SgdOptimizer: network structure changed between steps");
  }
  for (std::size_t p = 0; p < params.size(); ++p) {
    auto value = params[p].value->flat();
    auto grad = params[p].grad->flat();
    auto& vel = velocity_[p];
    for (std::size_t i = 0; i < value.size(); ++i) {
      vel[i] = momentum_ * vel[i] + grad[i];
      value[i] -= lr * vel[i];
    }
  }
}

StepLrSchedule::StepLrSchedule(std::vector<Stage> stages) : stages_(std::move(stages)) {
  if (stages_.empty()) throw std::invalid_argument("StepLrSchedule: need at least one stage");
  for (std::size_t i = 1; i < stages_.size(); ++i) {
    if (stages_[i].start_epoch <= stages_[i - 1].start_epoch) {
      throw std::invalid_argument("StepLrSchedule: stages must have increasing start epochs");
    }
  }
}

float StepLrSchedule::at(std::size_t epoch) const {
  float lr = stages_.front().lr;
  for (const Stage& stage : stages_) {
    if (epoch >= stage.start_epoch) lr = stage.lr;
  }
  return lr;
}

}  // namespace fftgrad::nn
