#include "fftgrad/nn/models.h"

#include <memory>
#include <stdexcept>

#include "fftgrad/nn/layers.h"

namespace fftgrad::nn::models {

Network make_mlp(std::size_t input, std::size_t hidden, std::size_t depth, std::size_t classes,
                 util::Rng& rng) {
  if (depth == 0) throw std::invalid_argument("make_mlp: depth must be >= 1");
  Network net;
  std::size_t in = input;
  for (std::size_t d = 0; d + 1 < depth; ++d) {
    net.add(std::make_unique<Dense>(in, hidden, rng));
    net.add(std::make_unique<ReLU>());
    in = hidden;
  }
  net.add(std::make_unique<Dense>(in, classes, rng));
  return net;
}

Network make_alexnet_mini(std::size_t side, std::size_t classes, util::Rng& rng) {
  if (side % 4 != 0) throw std::invalid_argument("make_alexnet_mini: side must be divisible by 4");
  Network net;
  net.add(std::make_unique<Conv2d>(3, 16, 5, 1, 2, rng));
  net.add(std::make_unique<BatchNorm2d>(16));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<MaxPool2d>(2));
  net.add(std::make_unique<Conv2d>(16, 32, 5, 1, 2, rng));
  net.add(std::make_unique<BatchNorm2d>(32));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<MaxPool2d>(2));
  net.add(std::make_unique<Flatten>());
  const std::size_t features = 32 * (side / 4) * (side / 4);
  net.add(std::make_unique<Dense>(features, 256, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(256, classes, rng));
  return net;
}

Network make_resnet_mini(std::size_t side, std::size_t blocks, std::size_t classes,
                         util::Rng& rng) {
  if (side % 2 != 0) throw std::invalid_argument("make_resnet_mini: side must be divisible by 2");
  Network net;
  net.add(std::make_unique<Conv2d>(3, 16, 3, 1, 1, rng));
  net.add(std::make_unique<BatchNorm2d>(16));
  net.add(std::make_unique<ReLU>());
  for (std::size_t b = 0; b < blocks; ++b) {
    net.add(std::make_unique<ResidualBlock>(16, rng));
  }
  net.add(std::make_unique<MaxPool2d>(2));
  net.add(std::make_unique<Flatten>());
  const std::size_t features = 16 * (side / 2) * (side / 2);
  net.add(std::make_unique<Dense>(features, classes, rng));
  return net;
}

}  // namespace fftgrad::nn::models
