#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <vector>

#include "fftgrad/tensor/ops.h"
#include "fftgrad/tensor/tensor.h"
#include "fftgrad/util/rng.h"

namespace fftgrad::tensor {
namespace {

TEST(Tensor, ConstructsZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FullFillsValue) {
  Tensor t = Tensor::full({4}, 2.5f);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, RandnUsesProvidedMoments) {
  util::Rng rng(1);
  Tensor t = Tensor::randn({10000}, rng, 1.0f, 2.0f);
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += static_cast<double>(t[i]) * t[i];
  }
  const double mean = sum / static_cast<double>(t.size());
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / static_cast<double>(t.size()) - mean * mean), 2.0, 0.1);
}

TEST(Tensor, At2dIndexingIsRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
}

TEST(Tensor, At4dIndexingIsRowMajor) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  t[7] = 3.0f;
  t.reshape({3, 4});
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t[7], 3.0f);
}

TEST(Tensor, ReshapeRejectsCountMismatch) {
  Tensor t({2, 6});
  EXPECT_THROW(t.reshape({5}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GEMM

void reference_gemm(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
                    bool ta, const float* b, bool tb, float beta, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

struct GemmCase {
  std::size_t m, n, k;
  bool ta, tb;
  float alpha, beta;
};

/// Prints a case as e.g. m3_n5_k7_ta0_tb1. ctest names value-parameterized
/// tests by the printed value, and gtest's default prints the struct's
/// bytes, whose padding differs between builds.
void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << "m" << c.m << "_n" << c.n << "_k" << c.k << "_ta" << c.ta << "_tb" << c.tb;
}

class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesReference) {
  const GemmCase c = GetParam();
  util::Rng rng(c.m * 131 + c.n * 17 + c.k);
  std::vector<float> a(c.m * c.k), b(c.k * c.n), out(c.m * c.n), expected;
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (float& v : b) v = static_cast<float>(rng.normal());
  for (float& v : out) v = static_cast<float>(rng.normal());
  expected = out;
  gemm(c.m, c.n, c.k, c.alpha, a.data(), c.ta, b.data(), c.tb, c.beta, out.data());
  reference_gemm(c.m, c.n, c.k, c.alpha, a.data(), c.ta, b.data(), c.tb, c.beta,
                 expected.data());
  const float tol = 1e-3f * std::sqrt(static_cast<float>(c.k));
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out[i], expected[i], tol) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Values(GemmCase{1, 1, 1, false, false, 1.0f, 0.0f},
                      GemmCase{3, 5, 7, false, false, 1.0f, 0.0f},
                      GemmCase{3, 5, 7, true, false, 1.0f, 0.0f},
                      GemmCase{3, 5, 7, false, true, 1.0f, 0.0f},
                      GemmCase{3, 5, 7, true, true, 1.0f, 0.0f},
                      GemmCase{16, 16, 16, false, false, 2.0f, 1.0f},
                      GemmCase{70, 90, 300, false, false, 1.0f, 0.0f},
                      GemmCase{70, 90, 300, false, true, 1.0f, 0.5f},
                      GemmCase{70, 90, 300, true, false, -1.0f, 1.0f},
                      GemmCase{128, 257, 67, false, false, 1.0f, 0.0f},
                      GemmCase{1, 300, 300, false, true, 1.0f, 0.0f}));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  std::vector<float> a = {1.0f}, b = {2.0f};
  std::vector<float> c = {std::numeric_limits<float>::quiet_NaN()};
  gemm(1, 1, 1, 1.0f, a.data(), false, b.data(), false, 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

// ---------------------------------------------------------------------------
// Elementwise ops

TEST(Ops, AxpyAccumulates) {
  std::vector<float> x = {1.0f, 2.0f}, y = {10.0f, 20.0f};
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
}

TEST(Ops, AxpyRejectsMismatch) {
  std::vector<float> x = {1.0f}, y = {1.0f, 2.0f};
  EXPECT_THROW(axpy(1.0f, x, y), std::invalid_argument);
}

TEST(Ops, ScaleMultiplies) {
  std::vector<float> y = {2.0f, -4.0f};
  scale(y, 0.5f);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  std::vector<float> logits = {1.0f, 2.0f, 3.0f, -1.0f, 0.0f, 1.0f};
  softmax_rows(logits, 2, 3);
  EXPECT_NEAR(logits[0] + logits[1] + logits[2], 1.0f, 1e-6f);
  EXPECT_NEAR(logits[3] + logits[4] + logits[5], 1.0f, 1e-6f);
  EXPECT_GT(logits[2], logits[1]);
  EXPECT_GT(logits[1], logits[0]);
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable) {
  std::vector<float> a = {1000.0f, 1001.0f};
  softmax_rows(a, 1, 2);
  EXPECT_FALSE(std::isnan(a[0]));
  std::vector<float> b = {0.0f, 1.0f};
  softmax_rows(b, 1, 2);
  EXPECT_NEAR(a[0], b[0], 1e-6f);
  EXPECT_NEAR(a[1], b[1], 1e-6f);
}

TEST(Ops, SumAccumulatesInDouble) {
  std::vector<float> v(1000, 0.1f);
  EXPECT_NEAR(sum(v), 100.0, 1e-3);
}

TEST(Ops, ArgmaxRowsPicksFirstMaximum) {
  std::vector<float> values = {0.1f, 0.9f, 0.3f, 0.7f, 0.7f, 0.1f};
  std::vector<std::size_t> out(2);
  argmax_rows(values, 2, 3, out);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 0u);
}

}  // namespace
}  // namespace fftgrad::tensor
