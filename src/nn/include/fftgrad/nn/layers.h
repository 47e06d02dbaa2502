// Concrete layers: Dense, Conv2d (im2col + GEMM), ReLU, MaxPool2d,
// Flatten, and a two-convolution Residual block (the structural element
// that distinguishes ResNet-style networks in the paper's Fig 2 analysis).
// All activations are NCHW with a leading batch dimension.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "fftgrad/nn/layer.h"
#include "fftgrad/util/rng.h"

namespace fftgrad::nn {

/// Fully connected: y = x W^T + b, x is (N x in), W is (out x in).
class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  std::string name() const override;
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Param> params() override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  tensor::Tensor weight_, bias_;
  tensor::Tensor weight_grad_, bias_grad_;
  tensor::Tensor input_cache_;
};

/// 2-D convolution over NCHW activations via im2col + GEMM, square kernel,
/// symmetric padding, unit dilation.
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, util::Rng& rng);

  std::string name() const override;
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Param> params() override;

  std::size_t out_height(std::size_t h) const { return (h + 2 * pad_ - k_) / stride_ + 1; }
  std::size_t out_width(std::size_t w) const { return (w + 2 * pad_ - k_) / stride_ + 1; }

 private:
  void im2col(const float* img, std::size_t h, std::size_t w, float* col) const;
  void col2im(const float* col, std::size_t h, std::size_t w, float* img) const;

  std::size_t cin_, cout_, k_, stride_, pad_;
  tensor::Tensor weight_;  // (cout, cin*k*k)
  tensor::Tensor bias_;    // (cout)
  tensor::Tensor weight_grad_, bias_grad_;
  tensor::Tensor input_cache_;
};

/// Per-channel batch normalization over NCHW activations, with learnable
/// scale/shift. Statistics are computed over (N, H, W) per channel. This is
/// the ingredient that keeps deep ReLU networks trainable (ResNet-style
/// models collapse to dead units without it); evaluation batches use batch
/// statistics as well (sufficient at the test-set sizes used here).
class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, float epsilon = 1e-5f);

  std::string name() const override;
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Param> params() override;

 private:
  std::size_t channels_;
  float epsilon_;
  tensor::Tensor gamma_, beta_;
  tensor::Tensor gamma_grad_, beta_grad_;
  // Backward caches.
  tensor::Tensor normalized_;          // x_hat
  std::vector<float> inv_stddev_;      // per channel
  std::vector<std::size_t> in_shape_;
};

class ReLU : public Layer {
 public:
  std::string name() const override { return "relu"; }
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  tensor::Tensor mask_;
};

/// Non-overlapping max pooling (window == stride).
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::size_t window) : window_(window) {}
  std::string name() const override;
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> in_shape_;
};

/// Collapse all non-batch dimensions: (N, C, H, W) -> (N, C*H*W).
class Flatten : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  std::vector<std::size_t> in_shape_;
};

/// y = relu(bn2(conv2(relu(bn1(conv1(x))))) + x): a same-shape ResNet basic
/// block (3x3 convolutions, stride 1, padding 1, channel-preserving, batch
/// normalization after each convolution as in the original architecture).
class ResidualBlock : public Layer {
 public:
  ResidualBlock(std::size_t channels, util::Rng& rng);

  std::string name() const override;
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Param> params() override;

 private:
  Conv2d conv1_, conv2_;
  BatchNorm2d bn1_, bn2_;
  ReLU relu1_;
  tensor::Tensor pre_activation_;  // bn2 output + skip, cached for the final ReLU
};

}  // namespace fftgrad::nn
