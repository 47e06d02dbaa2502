// Shared helpers for the figure/table reproduction benches: realistic
// gradient generation (from a briefly-trained model, so the statistics in
// Figs 4/5/15 are genuine DNN gradients, not synthetic noise) and common
// printing utilities.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "fftgrad/nn/dataset.h"
#include "fftgrad/nn/gradient_sampler.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/nn/network.h"
#include "fftgrad/nn/optimizer.h"
#include "fftgrad/util/table.h"

namespace fftgrad::bench {

/// Gradient of a briefly-trained ResNet-style CNN (the paper samples
/// ResNet32 gradients for its Fig 5/15 reconstruction studies).
inline std::vector<float> trained_model_gradient(std::size_t warm_iters = 30,
                                                 std::uint64_t seed = 7) {
  return nn::sample_training_gradient({.source = nn::GradientSource::kConvNet,
                                       .warm_iters = warm_iters,
                                       .seed = seed});
}

/// An MLP gradient (fully-connected-dominated — the "AlexNet-like"
/// statistics regime).
inline std::vector<float> trained_mlp_gradient(std::size_t warm_iters = 50,
                                               std::uint64_t seed = 11) {
  return nn::sample_training_gradient({.source = nn::GradientSource::kMlp,
                                       .warm_iters = warm_iters,
                                       .seed = seed});
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_table(const util::TableWriter& table) {
  std::fputs(table.to_string().c_str(), stdout);
}

}  // namespace fftgrad::bench
