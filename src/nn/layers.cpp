#include "fftgrad/nn/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fftgrad/tensor/ops.h"
#include "fftgrad/util/scratch.h"

namespace fftgrad::nn {

// ---------------------------------------------------------------------------
// Dense

Dense::Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(tensor::Tensor::randn({out_features, in_features}, rng, 0.0f,
                                    std::sqrt(2.0f / static_cast<float>(in_features)))),
      bias_({out_features}),
      weight_grad_({out_features, in_features}),
      bias_grad_({out_features}) {}

std::string Dense::name() const {
  return "dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

tensor::Tensor Dense::forward(const tensor::Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_) throw std::invalid_argument("Dense: bad input shape");
  input_cache_ = x;
  const std::size_t batch = x.dim(0);
  tensor::Tensor y({batch, out_});
  // y = x (N x in) * W^T (in x out)
  tensor::gemm(batch, out_, in_, 1.0f, x.data(), false, weight_.data(), true, 0.0f, y.data());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t o = 0; o < out_; ++o) y.at(n, o) += bias_[o];
  }
  return y;
}

tensor::Tensor Dense::backward(const tensor::Tensor& grad_out) {
  const std::size_t batch = input_cache_.dim(0);
  if (grad_out.rank() != 2 || grad_out.dim(0) != batch || grad_out.dim(1) != out_) {
    throw std::invalid_argument("Dense: bad grad shape");
  }
  // dW += dY^T (out x N) * X (N x in)
  tensor::gemm(out_, in_, batch, 1.0f, grad_out.data(), true, input_cache_.data(), false, 1.0f,
               weight_grad_.data());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t o = 0; o < out_; ++o) bias_grad_[o] += grad_out.at(n, o);
  }
  // dX = dY (N x out) * W (out x in)
  tensor::Tensor grad_in({batch, in_});
  tensor::gemm(batch, in_, out_, 1.0f, grad_out.data(), false, weight_.data(), false, 0.0f,
               grad_in.data());
  return grad_in;
}

std::vector<Param> Dense::params() {
  return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

// ---------------------------------------------------------------------------
// Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding, util::Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      weight_(tensor::Tensor::randn(
          {out_channels, in_channels * kernel * kernel}, rng, 0.0f,
          std::sqrt(2.0f / static_cast<float>(in_channels * kernel * kernel)))),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels * kernel * kernel}),
      bias_grad_({out_channels}) {
  if (stride == 0 || kernel == 0) throw std::invalid_argument("Conv2d: zero kernel/stride");
}

std::string Conv2d::name() const {
  return "conv(" + std::to_string(cin_) + "->" + std::to_string(cout_) + ",k" +
         std::to_string(k_) + ")";
}

namespace {

/// The output columns [lo, hi) whose input column ox * stride + kx - pad
/// lies inside an image `w` wide; empty when none does.
struct Span {
  std::size_t lo, hi;
};

Span in_image_span(std::size_t kx, std::size_t stride, std::size_t pad, std::size_t w,
                   std::size_t ow) {
  const std::size_t lo = kx >= pad ? 0 : (pad - kx + stride - 1) / stride;
  const std::size_t hi = kx >= w + pad ? 0 : (w + pad - kx + stride - 1) / stride;
  return {std::min(lo, ow), std::max(std::min(lo, ow), std::min(hi, ow))};
}

// Roles of the per-thread scratch (util::thread_scratch) behind Conv2d's
// patch matrix and its gradient: im2col writes every element of `col`, and
// the gemm into `col_grad` runs with beta = 0, so neither is zeroed first.
struct ColScratch;
struct ColGradScratch;

}  // namespace

void Conv2d::im2col(const float* img, std::size_t h, std::size_t w, float* col) const {
  const std::size_t oh = out_height(h);
  const std::size_t ow = out_width(w);
  const std::size_t cols = oh * ow;
  // col layout: (cin*k*k) x (oh*ow), row-major.
  for (std::size_t c = 0; c < cin_; ++c) {
    const float* channel = img + c * h * w;
    for (std::size_t ky = 0; ky < k_; ++ky) {
      for (std::size_t kx = 0; kx < k_; ++kx) {
        float* row = col + ((c * k_ + ky) * k_ + kx) * cols;
        const Span span = in_image_span(kx, stride_, pad_, w, ow);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          float* out = row + oy * ow;
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) - static_cast<std::ptrdiff_t>(pad_);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
            std::fill(out, out + ow, 0.0f);
            continue;
          }
          std::fill(out, out + span.lo, 0.0f);
          const float* src = channel + static_cast<std::size_t>(iy) * w;
          // At stride 1 the span is a contiguous run, which the compiler
          // vectorizes; it cannot see that through a run-time stride.
          if (stride_ == 1) {
            for (std::size_t ox = span.lo; ox < span.hi; ++ox) out[ox] = src[ox + kx - pad_];
          } else {
            for (std::size_t ox = span.lo; ox < span.hi; ++ox) {
              out[ox] = src[ox * stride_ + kx - pad_];
            }
          }
          std::fill(out + span.hi, out + ow, 0.0f);
        }
      }
    }
  }
}

void Conv2d::col2im(const float* col, std::size_t h, std::size_t w, float* img) const {
  const std::size_t oh = out_height(h);
  const std::size_t ow = out_width(w);
  const std::size_t cols = oh * ow;
  for (std::size_t c = 0; c < cin_; ++c) {
    float* channel = img + c * h * w;
    for (std::size_t ky = 0; ky < k_; ++ky) {
      for (std::size_t kx = 0; kx < k_; ++kx) {
        const float* row = col + ((c * k_ + ky) * k_ + kx) * cols;
        const Span span = in_image_span(kx, stride_, pad_, w, ow);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) - static_cast<std::ptrdiff_t>(pad_);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
          float* dst = channel + static_cast<std::size_t>(iy) * w;
          const float* in = row + oy * ow;
          if (stride_ == 1) {
            for (std::size_t ox = span.lo; ox < span.hi; ++ox) dst[ox + kx - pad_] += in[ox];
          } else {
            for (std::size_t ox = span.lo; ox < span.hi; ++ox) {
              dst[ox * stride_ + kx - pad_] += in[ox];
            }
          }
        }
      }
    }
  }
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != cin_) throw std::invalid_argument("Conv2d: bad input shape");
  input_cache_ = x;
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_height(h), ow = out_width(w);
  const std::size_t patch = cin_ * k_ * k_;
  tensor::Tensor y({batch, cout_, oh, ow});
  const std::span<float> col = util::thread_scratch<float, ColScratch>(patch * oh * ow);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(x.data() + n * cin_ * h * w, h, w, col.data());
    // (cout x patch) * (patch x oh*ow)
    tensor::gemm(cout_, oh * ow, patch, 1.0f, weight_.data(), false, col.data(), false, 0.0f,
                 y.data() + n * cout_ * oh * ow);
    float* out = y.data() + n * cout_ * oh * ow;
    for (std::size_t c = 0; c < cout_; ++c) {
      const float b = bias_[c];
      for (std::size_t i = 0; i < oh * ow; ++i) out[c * oh * ow + i] += b;
    }
  }
  return y;
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_out) {
  const std::size_t batch = input_cache_.dim(0);
  const std::size_t h = input_cache_.dim(2), w = input_cache_.dim(3);
  const std::size_t oh = out_height(h), ow = out_width(w);
  if (grad_out.rank() != 4 || grad_out.dim(0) != batch || grad_out.dim(1) != cout_ ||
      grad_out.dim(2) != oh || grad_out.dim(3) != ow) {
    throw std::invalid_argument("Conv2d: bad grad shape");
  }
  const std::size_t patch = cin_ * k_ * k_;
  tensor::Tensor grad_in({batch, cin_, h, w});
  const std::span<float> col = util::thread_scratch<float, ColScratch>(patch * oh * ow);
  const std::span<float> col_grad = util::thread_scratch<float, ColGradScratch>(patch * oh * ow);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(input_cache_.data() + n * cin_ * h * w, h, w, col.data());
    const float* dy = grad_out.data() + n * cout_ * oh * ow;
    // dW += dY (cout x ohw) * col^T (ohw x patch)
    tensor::gemm(cout_, patch, oh * ow, 1.0f, dy, false, col.data(), true, 1.0f,
                 weight_grad_.data());
    for (std::size_t c = 0; c < cout_; ++c) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < oh * ow; ++i) acc += dy[c * oh * ow + i];
      bias_grad_[c] += acc;
    }
    // dcol = W^T (patch x cout) * dY (cout x ohw)
    tensor::gemm(patch, oh * ow, cout_, 1.0f, weight_.data(), true, dy, false, 0.0f,
                 col_grad.data());
    col2im(col_grad.data(), h, w, grad_in.data() + n * cin_ * h * w);
  }
  return grad_in;
}

std::vector<Param> Conv2d::params() {
  return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

// ---------------------------------------------------------------------------
// BatchNorm2d

BatchNorm2d::BatchNorm2d(std::size_t channels, float epsilon)
    : channels_(channels),
      epsilon_(epsilon),
      gamma_(tensor::Tensor::full({channels}, 1.0f)),
      beta_({channels}),
      gamma_grad_({channels}),
      beta_grad_({channels}) {}

std::string BatchNorm2d::name() const { return "batchnorm(" + std::to_string(channels_) + ")"; }

tensor::Tensor BatchNorm2d::forward(const tensor::Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: expected NCHW input with matching channels");
  }
  in_shape_ = x.shape();
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t plane = h * w;
  const std::size_t per_channel = batch * plane;

  normalized_ = tensor::Tensor(x.shape());
  inv_stddev_.assign(channels_, 0.0f);
  tensor::Tensor y(x.shape());
  for (std::size_t c = 0; c < channels_; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* src = x.data() + (n * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum += src[i];
        sq += static_cast<double>(src[i]) * src[i];
      }
    }
    const double mean = sum / static_cast<double>(per_channel);
    const double var = std::max(0.0, sq / static_cast<double>(per_channel) - mean * mean);
    const float inv = static_cast<float>(1.0 / std::sqrt(var + epsilon_));
    inv_stddev_[c] = inv;
    const float g = gamma_[c], b = beta_[c], m = static_cast<float>(mean);
    for (std::size_t n = 0; n < batch; ++n) {
      const float* src = x.data() + (n * channels_ + c) * plane;
      float* hat = normalized_.data() + (n * channels_ + c) * plane;
      float* out = y.data() + (n * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        hat[i] = (src[i] - m) * inv;
        out[i] = g * hat[i] + b;
      }
    }
  }
  return y;
}

tensor::Tensor BatchNorm2d::backward(const tensor::Tensor& grad_out) {
  const std::size_t batch = in_shape_[0], h = in_shape_[2], w = in_shape_[3];
  const std::size_t plane = h * w;
  const std::size_t per_channel = batch * plane;
  if (grad_out.size() != batch * channels_ * plane) {
    throw std::invalid_argument("BatchNorm2d: bad grad shape");
  }
  tensor::Tensor grad_in(in_shape_);
  for (std::size_t c = 0; c < channels_; ++c) {
    // dL/dgamma = sum(dy * x_hat); dL/dbeta = sum(dy);
    // dL/dx = gamma * inv / N * (N*dy - sum(dy) - x_hat * sum(dy * x_hat)).
    double sum_dy = 0.0, sum_dy_hat = 0.0;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* dy = grad_out.data() + (n * channels_ + c) * plane;
      const float* hat = normalized_.data() + (n * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum_dy += dy[i];
        sum_dy_hat += static_cast<double>(dy[i]) * hat[i];
      }
    }
    gamma_grad_[c] += static_cast<float>(sum_dy_hat);
    beta_grad_[c] += static_cast<float>(sum_dy);
    const float scale = gamma_[c] * inv_stddev_[c] / static_cast<float>(per_channel);
    const auto mean_dy = static_cast<float>(sum_dy);
    const auto mean_dy_hat = static_cast<float>(sum_dy_hat);
    for (std::size_t n = 0; n < batch; ++n) {
      const float* dy = grad_out.data() + (n * channels_ + c) * plane;
      const float* hat = normalized_.data() + (n * channels_ + c) * plane;
      float* dx = grad_in.data() + (n * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        dx[i] = scale * (static_cast<float>(per_channel) * dy[i] - mean_dy -
                         hat[i] * mean_dy_hat);
      }
    }
  }
  return grad_in;
}

std::vector<Param> BatchNorm2d::params() {
  return {{&gamma_, &gamma_grad_}, {&beta_, &beta_grad_}};
}

// ---------------------------------------------------------------------------
// ReLU

tensor::Tensor ReLU::forward(const tensor::Tensor& x) {
  mask_ = tensor::Tensor(x.shape());
  tensor::Tensor y(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool positive = x[i] > 0.0f;
    mask_[i] = positive ? 1.0f : 0.0f;
    y[i] = positive ? x[i] : 0.0f;
  }
  return y;
}

tensor::Tensor ReLU::backward(const tensor::Tensor& grad_out) {
  if (grad_out.size() != mask_.size()) throw std::invalid_argument("ReLU: bad grad shape");
  tensor::Tensor grad_in(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) grad_in[i] = grad_out[i] * mask_[i];
  return grad_in;
}

// ---------------------------------------------------------------------------
// MaxPool2d

std::string MaxPool2d::name() const { return "maxpool(" + std::to_string(window_) + ")"; }

tensor::Tensor MaxPool2d::forward(const tensor::Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("MaxPool2d: expected NCHW input");
  const std::size_t batch = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (h % window_ != 0 || w % window_ != 0) {
    throw std::invalid_argument("MaxPool2d: spatial dims must be divisible by the window");
  }
  in_shape_ = x.shape();
  const std::size_t oh = h / window_, ow = w / window_;
  tensor::Tensor y({batch, c, oh, ow});
  argmax_.assign(y.size(), 0);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (n * c + ch) * h * w;
      float* out = y.data() + (n * c + ch) * oh * ow;
      std::size_t* arg = argmax_.data() + (n * c + ch) * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              const std::size_t idx = (oy * window_ + dy) * w + ox * window_ + dx;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          out[oy * ow + ox] = best;
          arg[oy * ow + ox] = best_idx;
        }
      }
    }
  }
  return y;
}

tensor::Tensor MaxPool2d::backward(const tensor::Tensor& grad_out) {
  const std::size_t batch = in_shape_[0], c = in_shape_[1], h = in_shape_[2], w = in_shape_[3];
  const std::size_t oh = h / window_, ow = w / window_;
  if (grad_out.size() != batch * c * oh * ow) {
    throw std::invalid_argument("MaxPool2d: bad grad shape");
  }
  tensor::Tensor grad_in(in_shape_);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* dy = grad_out.data() + (n * c + ch) * oh * ow;
      const std::size_t* arg = argmax_.data() + (n * c + ch) * oh * ow;
      float* dx = grad_in.data() + (n * c + ch) * h * w;
      for (std::size_t i = 0; i < oh * ow; ++i) dx[arg[i]] += dy[i];
    }
  }
  return grad_in;
}

// ---------------------------------------------------------------------------
// Flatten

tensor::Tensor Flatten::forward(const tensor::Tensor& x) {
  in_shape_ = x.shape();
  tensor::Tensor y = x;
  std::size_t features = 1;
  for (std::size_t d = 1; d < x.rank(); ++d) features *= x.dim(d);
  y.reshape({x.dim(0), features});
  return y;
}

tensor::Tensor Flatten::backward(const tensor::Tensor& grad_out) {
  tensor::Tensor grad_in = grad_out;
  grad_in.reshape(in_shape_);
  return grad_in;
}

// ---------------------------------------------------------------------------
// ResidualBlock

ResidualBlock::ResidualBlock(std::size_t channels, util::Rng& rng)
    : conv1_(channels, channels, 3, 1, 1, rng),
      conv2_(channels, channels, 3, 1, 1, rng),
      bn1_(channels),
      bn2_(channels) {}

std::string ResidualBlock::name() const { return "residual"; }

tensor::Tensor ResidualBlock::forward(const tensor::Tensor& x) {
  tensor::Tensor h = relu1_.forward(bn1_.forward(conv1_.forward(x)));
  pre_activation_ = bn2_.forward(conv2_.forward(h));
  for (std::size_t i = 0; i < pre_activation_.size(); ++i) pre_activation_[i] += x[i];
  tensor::Tensor y(pre_activation_.shape());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = pre_activation_[i] > 0.0f ? pre_activation_[i] : 0.0f;
  }
  return y;
}

tensor::Tensor ResidualBlock::backward(const tensor::Tensor& grad_out) {
  tensor::Tensor dpre(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    dpre[i] = pre_activation_[i] > 0.0f ? grad_out[i] : 0.0f;
  }
  tensor::Tensor dbranch =
      conv1_.backward(bn1_.backward(relu1_.backward(conv2_.backward(bn2_.backward(dpre)))));
  for (std::size_t i = 0; i < dbranch.size(); ++i) dbranch[i] += dpre[i];  // skip connection
  return dbranch;
}

std::vector<Param> ResidualBlock::params() {
  std::vector<Param> all = conv1_.params();
  for (Param p : bn1_.params()) all.push_back(p);
  for (Param p : conv2_.params()) all.push_back(p);
  for (Param p : bn2_.params()) all.push_back(p);
  return all;
}

}  // namespace fftgrad::nn
