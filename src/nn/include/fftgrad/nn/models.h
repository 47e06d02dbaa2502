// Model zoo: scaled-down analogues of the paper's two workloads plus a
// plain MLP for tests.
//
//  * AlexNetMini — "linear" architecture with comparatively large kernels
//    and a parameter-heavy fully connected tail, the regime where AlexNet
//    sits in the paper (most parameters in a few big layers).
//  * ResNetMini — small 3x3 convolutions and residual blocks, the regime
//    of ResNet32 (many small layers, little per-layer compute).
//
// Both take (3 x side x side) inputs; see DESIGN.md for why scaled-down
// models on synthetic data preserve the phenomena under study.
#pragma once

#include <cstddef>

#include "fftgrad/nn/network.h"
#include "fftgrad/util/rng.h"

namespace fftgrad::nn::models {

/// Dense -> ReLU -> ... -> Dense classifier over flat inputs.
Network make_mlp(std::size_t input, std::size_t hidden, std::size_t depth, std::size_t classes,
                 util::Rng& rng);

/// conv5x5(3->16) pool2 conv5x5(16->32) pool2 dense(...) dense(classes);
/// side must be divisible by 4.
Network make_alexnet_mini(std::size_t side, std::size_t classes, util::Rng& rng);

/// conv3x3(3->16) + `blocks` residual blocks + pool2 + dense(classes);
/// side must be divisible by 2.
Network make_resnet_mini(std::size_t side, std::size_t blocks, std::size_t classes,
                         util::Rng& rng);

}  // namespace fftgrad::nn::models
