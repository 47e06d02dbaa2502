#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <vector>

#include "fftgrad/nn/dataset.h"
#include "fftgrad/nn/layers.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/nn/network.h"
#include "fftgrad/nn/optimizer.h"

namespace fftgrad::nn {
namespace {

/// Central-difference gradient check of a layer's parameter and input
/// gradients against the analytic backward pass, using a random scalar
/// objective L = sum(w_out * y). The allowed deviation is
/// tolerance * (1 + |numeric gradient|): curvature-heavy layers (batch
/// normalization) have O(h^2) truncation error proportional to the
/// gradient scale.
void check_gradients(Layer& layer, tensor::Tensor input, float tolerance, float h = 5e-3f) {
  util::Rng rng(99);
  tensor::Tensor output = layer.forward(input);
  tensor::Tensor loss_weights = tensor::Tensor::randn(output.shape(), rng);

  layer.zero_grad();
  layer.forward(input);
  const tensor::Tensor grad_in = layer.backward(loss_weights);

  auto objective = [&](const tensor::Tensor& x) {
    const tensor::Tensor y = layer.forward(x);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      acc += static_cast<double>(y[i]) * loss_weights[i];
    }
    return acc;
  };

  // Input gradients (a sample of coordinates keeps the test fast).
  for (std::size_t i = 0; i < input.size(); i += std::max<std::size_t>(1, input.size() / 25)) {
    const float saved = input[i];
    input[i] = saved + h;
    const double up = objective(input);
    input[i] = saved - h;
    const double down = objective(input);
    input[i] = saved;
    const double numeric = (up - down) / (2.0 * h);
    EXPECT_NEAR(grad_in[i], numeric, tolerance * (1.0 + std::fabs(numeric)))
        << "input coord " << i;
  }
  // Parameter gradients.
  for (Param p : layer.params()) {
    tensor::Tensor& w = *p.value;
    for (std::size_t i = 0; i < w.size(); i += std::max<std::size_t>(1, w.size() / 25)) {
      const float saved = w[i];
      w[i] = saved + h;
      const double up = objective(input);
      w[i] = saved - h;
      const double down = objective(input);
      w[i] = saved;
      const double numeric = (up - down) / (2.0 * h);
      EXPECT_NEAR((*p.grad)[i], numeric, tolerance * (1.0 + std::fabs(numeric)))
          << "param coord " << i;
    }
  }
}

TEST(Dense, ForwardMatchesHandComputation) {
  util::Rng rng(1);
  Dense layer(2, 1, rng);
  auto params = layer.params();
  (*params[0].value)[0] = 2.0f;  // w00
  (*params[0].value)[1] = 3.0f;  // w01
  (*params[1].value)[0] = 0.5f;  // bias
  tensor::Tensor x({1, 2});
  x[0] = 1.0f;
  x[1] = -1.0f;
  const tensor::Tensor y = layer.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.0f - 3.0f + 0.5f);
}

TEST(Dense, GradientsMatchNumericDifferentiation) {
  util::Rng rng(2);
  Dense layer(5, 4, rng);
  tensor::Tensor x = tensor::Tensor::randn({3, 5}, rng);
  check_gradients(layer, std::move(x), 2e-2f);
}

TEST(Dense, RejectsWrongInputWidth) {
  util::Rng rng(3);
  Dense layer(4, 2, rng);
  tensor::Tensor bad({2, 5});
  EXPECT_THROW(layer.forward(bad), std::invalid_argument);
}

TEST(Conv2d, OutputShapeFollowsFormula) {
  util::Rng rng(4);
  Conv2d conv(3, 8, 5, 1, 2, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 16, 16}, rng);
  const tensor::Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 16, 16}));
  Conv2d strided(3, 4, 3, 2, 1, rng);
  const tensor::Tensor z = strided.forward(x);
  EXPECT_EQ(z.shape(), (std::vector<std::size_t>{2, 4, 8, 8}));
}

TEST(Conv2d, IdentityKernelPassesSignalThrough) {
  util::Rng rng(5);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  auto params = conv.params();
  params[0].value->fill(0.0f);
  (*params[0].value)[4] = 1.0f;  // center tap of the 3x3 kernel
  params[1].value->fill(0.0f);
  tensor::Tensor x = tensor::Tensor::randn({1, 1, 6, 6}, rng);
  const tensor::Tensor y = conv.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, GradientsMatchNumericDifferentiation) {
  util::Rng rng(6);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 5, 5}, rng);
  check_gradients(conv, std::move(x), 3e-2f);
}

TEST(Conv2d, StridedGradientsMatchNumericDifferentiation) {
  util::Rng rng(7);
  Conv2d conv(1, 2, 3, 2, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({1, 1, 7, 7}, rng);
  check_gradients(conv, std::move(x), 3e-2f);
}

struct ConvShiftCase {
  std::size_t h, w, k, stride, pad;
};

/// Prints a case as e.g. h5_w7_k3_s1_p1 (see GemmCase's PrintTo).
void PrintTo(const ConvShiftCase& c, std::ostream* os) {
  *os << "h" << c.h << "_w" << c.w << "_k" << c.k << "_s" << c.stride << "_p" << c.pad;
}

class Conv2dOneHot : public ::testing::TestWithParam<ConvShiftCase> {};

/// With one tap of the kernel set to 1 (output channel o reads input
/// channel o) and no bias, forward must copy the input shifted by that tap,
/// with zeros where the tap falls outside the image, and backward must
/// scatter dY into grad_in the same way, bit for bit: the zero skip of
/// gemm's non-transposed-B path keeps every other tap out of both sums.
TEST_P(Conv2dOneHot, ForwardShiftsAndBackwardScattersExactly) {
  const ConvShiftCase c = GetParam();
  constexpr std::size_t kBatch = 2, kChannels = 2;
  util::Rng rng(c.h * 1009 + c.w * 101 + c.k * 31 + c.stride * 7 + c.pad);
  Conv2d conv(kChannels, kChannels, c.k, c.stride, c.pad, rng);
  const std::size_t oh = conv.out_height(c.h), ow = conv.out_width(c.w);
  const tensor::Tensor x = tensor::Tensor::randn({kBatch, kChannels, c.h, c.w}, rng);
  const tensor::Tensor dy = tensor::Tensor::randn({kBatch, kChannels, oh, ow}, rng);
  auto params = conv.params();
  params[1].value->fill(0.0f);
  for (std::size_t ky = 0; ky < c.k; ++ky) {
    for (std::size_t kx = 0; kx < c.k; ++kx) {
      params[0].value->fill(0.0f);
      for (std::size_t ch = 0; ch < kChannels; ++ch) {
        (*params[0].value)[((ch * kChannels + ch) * c.k + ky) * c.k + kx] = 1.0f;
      }
      const tensor::Tensor y = conv.forward(x);
      const tensor::Tensor dx = conv.backward(dy);
      tensor::Tensor expected_y({kBatch, kChannels, oh, ow});
      tensor::Tensor expected_dx({kBatch, kChannels, c.h, c.w});
      for (std::size_t n = 0; n < kBatch; ++n) {
        for (std::size_t ch = 0; ch < kChannels; ++ch) {
          for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const std::size_t iy = oy * c.stride + ky, ix = ox * c.stride + kx;
              if (iy < c.pad || iy - c.pad >= c.h || ix < c.pad || ix - c.pad >= c.w) continue;
              expected_y.at(n, ch, oy, ox) = x.at(n, ch, iy - c.pad, ix - c.pad);
              expected_dx.at(n, ch, iy - c.pad, ix - c.pad) = dy.at(n, ch, oy, ox);
            }
          }
        }
      }
      ASSERT_EQ(y.shape(), expected_y.shape());
      for (std::size_t i = 0; i < y.size(); ++i) {
        ASSERT_EQ(y[i], expected_y[i]) << "tap " << ky << "," << kx << " y[" << i << "]";
      }
      for (std::size_t i = 0; i < dx.size(); ++i) {
        ASSERT_EQ(dx[i], expected_dx[i]) << "tap " << ky << "," << kx << " dx[" << i << "]";
      }
    }
  }
}

// Strides 1-3, pads 0-3, non-square images. In h2_w1_k2_s3_p3 the pad
// reaches past the kernel: tap kx = 1 lands outside the one-column image
// at every output column (an empty span), and in h3_w1_k1_s3_p2 so does
// the only tap.
INSTANTIATE_TEST_SUITE_P(Shapes, Conv2dOneHot,
                         ::testing::Values(ConvShiftCase{5, 7, 3, 1, 1},
                                           ConvShiftCase{5, 7, 4, 1, 0},
                                           ConvShiftCase{5, 7, 4, 1, 3},
                                           ConvShiftCase{6, 5, 3, 2, 1},
                                           ConvShiftCase{7, 4, 3, 2, 0},
                                           ConvShiftCase{8, 5, 3, 3, 2},
                                           ConvShiftCase{4, 7, 2, 3, 3},
                                           ConvShiftCase{4, 6, 1, 1, 2},
                                           ConvShiftCase{2, 1, 2, 3, 3},
                                           ConvShiftCase{3, 1, 1, 3, 2}));

TEST(ReLU, ZeroesNegativesForwardAndBackward) {
  ReLU relu;
  tensor::Tensor x({1, 4});
  x[0] = -1.0f;
  x[1] = 2.0f;
  x[2] = 0.0f;
  x[3] = -0.5f;
  const tensor::Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
  tensor::Tensor dy = tensor::Tensor::full({1, 4}, 1.0f);
  const tensor::Tensor dx = relu.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(MaxPool, ForwardSelectsWindowMaximum) {
  MaxPool2d pool(2);
  tensor::Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = 2.0f;
  x[3] = 3.0f;
  const tensor::Tensor y = pool.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool, BackwardRoutesToArgmaxOnly) {
  MaxPool2d pool(2);
  util::Rng rng(8);
  tensor::Tensor x = tensor::Tensor::randn({1, 2, 4, 4}, rng);
  pool.forward(x);
  tensor::Tensor dy = tensor::Tensor::full({1, 2, 2, 2}, 1.0f);
  const tensor::Tensor dx = pool.backward(dy);
  double total = 0.0;
  for (std::size_t i = 0; i < dx.size(); ++i) total += dx[i];
  EXPECT_DOUBLE_EQ(total, 8.0);  // one unit per pooled cell
}

TEST(MaxPool, RejectsIndivisibleSpatialDims) {
  MaxPool2d pool(2);
  tensor::Tensor x({1, 1, 3, 4});
  EXPECT_THROW(pool.forward(x), std::invalid_argument);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flatten;
  util::Rng rng(9);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 4, 5}, rng);
  const tensor::Tensor y = flatten.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 60}));
  const tensor::Tensor dx = flatten.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(BatchNorm, NormalizesPerChannel) {
  BatchNorm2d bn(2);
  util::Rng rng(30);
  tensor::Tensor x = tensor::Tensor::randn({4, 2, 5, 5}, rng, 3.0f, 2.0f);
  const tensor::Tensor y = bn.forward(x);
  const std::size_t plane = 25;
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::size_t n = 0; n < 4; ++n) {
      const float* out = y.data() + (n * 2 + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum += out[i];
        sq += static_cast<double>(out[i]) * out[i];
      }
    }
    const double mean = sum / 100.0;
    const double var = sq / 100.0 - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GammaBetaScaleAndShift) {
  BatchNorm2d bn(1);
  auto params = bn.params();
  (*params[0].value)[0] = 2.0f;  // gamma
  (*params[1].value)[0] = 5.0f;  // beta
  util::Rng rng(31);
  tensor::Tensor x = tensor::Tensor::randn({2, 1, 4, 4}, rng);
  const tensor::Tensor y = bn.forward(x);
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    sum += y[i];
    sq += static_cast<double>(y[i]) * y[i];
  }
  const double mean = sum / static_cast<double>(y.size());
  EXPECT_NEAR(mean, 5.0, 1e-4);
  EXPECT_NEAR(std::sqrt(sq / static_cast<double>(y.size()) - mean * mean), 2.0, 1e-2);
}

TEST(BatchNorm, GradientsMatchNumericDifferentiation) {
  util::Rng rng(32);
  BatchNorm2d bn(2);
  tensor::Tensor x = tensor::Tensor::randn({3, 2, 3, 3}, rng);
  check_gradients(bn, std::move(x), 3e-2f, 2e-3f);
}

TEST(BatchNorm, ConstantChannelStaysFiniteViaEpsilon) {
  BatchNorm2d bn(1);
  tensor::Tensor x = tensor::Tensor::full({2, 1, 3, 3}, 7.0f);
  const tensor::Tensor y = bn.forward(x);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(std::isfinite(y[i]));
    EXPECT_NEAR(y[i], 0.0f, 1e-4f);
  }
}

TEST(BatchNorm, RejectsChannelMismatch) {
  BatchNorm2d bn(3);
  tensor::Tensor x({1, 2, 4, 4});
  EXPECT_THROW(bn.forward(x), std::invalid_argument);
}

TEST(ResidualBlock, GradientsMatchNumericDifferentiation) {
  util::Rng rng(10);
  ResidualBlock block(2, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 2, 4, 4}, rng);
  check_gradients(block, std::move(x), 4e-2f, 2e-3f);
}

TEST(ResidualBlock, SkipPathDominatesWithZeroGamma) {
  // Zeroing every parameter (including the batch-norm gammas) silences the
  // convolutional branch, leaving relu(x) through the skip connection.
  util::Rng rng(11);
  ResidualBlock block(1, rng);
  for (Param p : block.params()) p.value->fill(0.0f);
  tensor::Tensor x = tensor::Tensor::full({1, 1, 2, 2}, 3.0f);
  const tensor::Tensor y = block.forward(x);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y[i], 3.0f);
}

// ---------------------------------------------------------------------------
// Loss

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  tensor::Tensor logits({2, 4});
  std::vector<std::size_t> labels = {0, 3};
  EXPECT_NEAR(loss.forward(logits, labels), std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, GradientMatchesSoftmaxMinusOneHot) {
  SoftmaxCrossEntropy loss;
  tensor::Tensor logits({1, 3});
  logits[0] = 1.0f;
  logits[1] = 2.0f;
  logits[2] = 3.0f;
  std::vector<std::size_t> labels = {2};
  loss.forward(logits, labels);
  const tensor::Tensor grad = loss.backward();
  double total = 0.0;
  for (std::size_t i = 0; i < 3; ++i) total += grad[i];
  EXPECT_NEAR(total, 0.0, 1e-6);
  EXPECT_LT(grad[2], 0.0f);
  EXPECT_GT(grad[0], 0.0f);
}

TEST(SoftmaxCrossEntropy, NumericGradientCheck) {
  SoftmaxCrossEntropy loss;
  util::Rng rng(12);
  tensor::Tensor logits = tensor::Tensor::randn({3, 5}, rng);
  std::vector<std::size_t> labels = {1, 4, 0};
  loss.forward(logits, labels);
  const tensor::Tensor grad = loss.backward();
  const float h = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    tensor::Tensor up = logits, down = logits;
    up[i] += h;
    down[i] -= h;
    SoftmaxCrossEntropy fresh;
    const double numeric = (fresh.forward(up, labels) - fresh.forward(down, labels)) / (2.0 * h);
    EXPECT_NEAR(grad[i], numeric, 1e-3) << i;
  }
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  SoftmaxCrossEntropy loss;
  tensor::Tensor logits({1, 3});
  std::vector<std::size_t> labels = {3};
  EXPECT_THROW(loss.forward(logits, labels), std::invalid_argument);
}

TEST(Accuracy, CountsCorrectPredictions) {
  tensor::Tensor logits({2, 3});
  logits.at(0, 1) = 1.0f;  // predicts 1
  logits.at(1, 2) = 1.0f;  // predicts 2
  std::vector<std::size_t> labels = {1, 0};
  EXPECT_DOUBLE_EQ(accuracy(logits, labels), 0.5);
}

// ---------------------------------------------------------------------------
// Network / optimizer / dataset / models

TEST(Network, FlatGradientRoundTrip) {
  util::Rng rng(13);
  Network net = models::make_mlp(8, 16, 3, 4, rng);
  const std::size_t n = net.param_count();
  EXPECT_GT(n, 0u);
  std::vector<float> flat(n);
  for (std::size_t i = 0; i < n; ++i) flat[i] = static_cast<float>(i);
  net.set_gradients(flat);
  std::vector<float> back(n);
  net.copy_gradients(back);
  EXPECT_EQ(back, flat);
}

TEST(Network, FlatParamRoundTrip) {
  util::Rng rng(14);
  Network net = models::make_mlp(4, 8, 2, 3, rng);
  std::vector<float> saved(net.param_count());
  net.copy_params(saved);
  // Perturb, then restore.
  std::vector<float> zeros(saved.size(), 0.0f);
  net.set_params(zeros);
  std::vector<float> now(saved.size());
  net.copy_params(now);
  EXPECT_EQ(now, zeros);
  net.set_params(saved);
  net.copy_params(now);
  EXPECT_EQ(now, saved);
}

TEST(Network, FlatBufferSizeMismatchThrows) {
  util::Rng rng(15);
  Network net = models::make_mlp(4, 8, 2, 3, rng);
  std::vector<float> wrong(net.param_count() + 1);
  EXPECT_THROW(net.copy_gradients(wrong), std::invalid_argument);
  EXPECT_THROW(net.set_gradients(wrong), std::invalid_argument);
}

TEST(Optimizer, PlainSgdStepMovesAgainstGradient) {
  util::Rng rng(16);
  Network net = models::make_mlp(2, 4, 2, 2, rng);
  SgdOptimizer opt(/*momentum=*/0.0f);
  std::vector<float> before(net.param_count());
  net.copy_params(before);
  std::vector<float> grad(net.param_count(), 1.0f);
  net.set_gradients(grad);
  opt.step(net, 0.1f);
  std::vector<float> after(net.param_count());
  net.copy_params(after);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i], before[i] - 0.1f, 1e-6f);
  }
}

TEST(Optimizer, MomentumAccumulatesVelocity) {
  util::Rng rng(17);
  Network net = models::make_mlp(2, 2, 1, 2, rng);
  SgdOptimizer opt(/*momentum=*/0.5f);
  std::vector<float> start(net.param_count());
  net.copy_params(start);
  std::vector<float> grad(net.param_count(), 1.0f);
  net.set_gradients(grad);
  opt.step(net, 1.0f);  // v=1, param -= 1
  net.set_gradients(grad);
  opt.step(net, 1.0f);  // v=1.5, param -= 1.5
  std::vector<float> after(net.param_count());
  net.copy_params(after);
  for (std::size_t i = 0; i < start.size(); ++i) {
    EXPECT_NEAR(after[i], start[i] - 2.5f, 1e-5f);
  }
}

TEST(Optimizer, MomentumStepMatchesItsFormulaBitForBit) {
  // v = momentum*v + grad; param -= lr*v, in float, over three steps with
  // a different gradient each time.
  util::Rng rng(18);
  Network net = models::make_mlp(3, 5, 2, 2, rng);
  SgdOptimizer opt(/*momentum=*/0.9f);
  std::vector<float> param(net.param_count());
  net.copy_params(param);
  std::vector<float> velocity(param.size(), 0.0f);
  std::vector<float> grad(param.size());
  for (int step = 0; step < 3; ++step) {
    for (float& g : grad) g = static_cast<float>(rng.normal());
    net.set_gradients(grad);
    opt.step(net, 0.05f);
    for (std::size_t i = 0; i < param.size(); ++i) {
      velocity[i] = 0.9f * velocity[i] + grad[i];
      param[i] -= 0.05f * velocity[i];
    }
  }
  std::vector<float> after(param.size());
  net.copy_params(after);
  EXPECT_EQ(after, param);
}

TEST(Optimizer, RestoredVelocityContinuesTheRunBitForBit) {
  // The checkpoint contract: parameters plus velocity() are the whole
  // optimizer state.
  util::Rng init(19), init_again(19);
  Network net = models::make_mlp(3, 4, 2, 2, init);
  Network resumed = models::make_mlp(3, 4, 2, 2, init_again);
  util::Rng rng(20);
  std::vector<std::vector<float>> grads(3, std::vector<float>(net.param_count()));
  for (auto& grad : grads) {
    for (float& g : grad) g = static_cast<float>(rng.normal());
  }
  SgdOptimizer straight(0.9f);
  for (const auto& grad : grads) {
    net.set_gradients(grad);
    straight.step(net, 0.1f);
  }
  SgdOptimizer first(0.9f);
  resumed.set_gradients(grads[0]);
  first.step(resumed, 0.1f);
  SgdOptimizer second(0.9f);
  second.set_velocity(first.velocity());
  for (std::size_t s = 1; s < grads.size(); ++s) {
    resumed.set_gradients(grads[s]);
    second.step(resumed, 0.1f);
  }
  std::vector<float> expected(net.param_count()), actual(net.param_count());
  net.copy_params(expected);
  resumed.copy_params(actual);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(second.velocity(), straight.velocity());
}

TEST(Optimizer, RejectsANetworkWhoseStructureChanged) {
  util::Rng rng(21);
  Network small = models::make_mlp(2, 4, 1, 2, rng);
  Network deeper = models::make_mlp(2, 4, 2, 2, rng);
  SgdOptimizer opt(0.9f);
  opt.step(small, 0.1f);
  EXPECT_THROW(opt.step(deeper, 0.1f), std::logic_error);
}

TEST(StepLrSchedule, PicksStageByEpoch) {
  StepLrSchedule sched({{0, 0.01f}, {30, 0.001f}, {60, 0.0001f}});
  EXPECT_FLOAT_EQ(sched.at(0), 0.01f);
  EXPECT_FLOAT_EQ(sched.at(29), 0.01f);
  EXPECT_FLOAT_EQ(sched.at(30), 0.001f);
  EXPECT_FLOAT_EQ(sched.at(100), 0.0001f);
}

TEST(StepLrSchedule, RejectsNonIncreasingStages) {
  EXPECT_THROW(StepLrSchedule({{10, 0.1f}, {10, 0.01f}}), std::invalid_argument);
  EXPECT_THROW(StepLrSchedule({}), std::invalid_argument);
}

TEST(SyntheticDataset, DeterministicTestSet) {
  SyntheticDataset data({8}, 4, 123);
  const Batch a = data.test_set(64);
  const Batch b = data.test_set(64);
  EXPECT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.inputs.size(); ++i) EXPECT_EQ(a.inputs[i], b.inputs[i]);
}

TEST(SyntheticDataset, UsesAllClasses) {
  SyntheticDataset data({16}, 4, 7);
  const Batch batch = data.test_set(512);
  std::vector<int> counts(4, 0);
  for (std::size_t label : batch.labels) {
    ASSERT_LT(label, 4u);
    ++counts[label];
  }
  for (int c : counts) EXPECT_GT(c, 20);  // roughly balanced teacher
}

TEST(SyntheticDataset, TaskIsLearnable) {
  // A student MLP should comfortably beat chance in a short training run.
  SyntheticDataset data({8}, 2, 21);
  util::Rng rng(22);
  Network net = models::make_mlp(8, 32, 2, 2, rng);
  SgdOptimizer opt(0.9f);
  SoftmaxCrossEntropy criterion;
  util::Rng sample_rng(23);
  for (int iter = 0; iter < 300; ++iter) {
    const Batch batch = data.sample(32, sample_rng);
    net.zero_grad();
    const tensor::Tensor logits = net.forward(batch.inputs);
    criterion.forward(logits, batch.labels);
    net.backward(criterion.backward());
    opt.step(net, 0.05f);
  }
  const Batch test = data.test_set(512);
  const tensor::Tensor logits = net.forward(test.inputs);
  EXPECT_GT(accuracy(logits, test.labels), 0.75);
}

TEST(Models, ParameterCountsArePositiveAndDistinct) {
  util::Rng rng(24);
  Network alex = models::make_alexnet_mini(16, 10, rng);
  Network res = models::make_resnet_mini(16, 2, 10, rng);
  EXPECT_GT(alex.param_count(), 10000u);
  EXPECT_GT(res.param_count(), 1000u);
  EXPECT_NE(alex.param_count(), res.param_count());
}

TEST(Models, ForwardShapesMatchClassCount) {
  util::Rng rng(25);
  Network alex = models::make_alexnet_mini(16, 7, rng);
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 16, 16}, rng);
  EXPECT_EQ(alex.forward(x).shape(), (std::vector<std::size_t>{2, 7}));
  Network res = models::make_resnet_mini(16, 2, 5, rng);
  EXPECT_EQ(res.forward(x).shape(), (std::vector<std::size_t>{2, 5}));
}

TEST(Models, EndToEndBackwardProducesFiniteGradients) {
  util::Rng rng(26);
  Network net = models::make_resnet_mini(8, 1, 3, rng);
  SoftmaxCrossEntropy criterion;
  tensor::Tensor x = tensor::Tensor::randn({2, 3, 8, 8}, rng);
  std::vector<std::size_t> labels = {0, 2};
  net.zero_grad();
  criterion.forward(net.forward(x), labels);
  net.backward(criterion.backward());
  std::vector<float> grads(net.param_count());
  net.copy_gradients(grads);
  double norm = 0.0;
  for (float g : grads) {
    ASSERT_TRUE(std::isfinite(g));
    norm += static_cast<double>(g) * g;
  }
  EXPECT_GT(norm, 0.0);
}

}  // namespace
}  // namespace fftgrad::nn
