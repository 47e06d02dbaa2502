#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <vector>

#include "fftgrad/parallel/thread_pool.h"
#include "fftgrad/tensor/ops.h"
#include "fftgrad/tensor/tensor.h"
#include "fftgrad/util/cpu.h"
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
// GEMM rounding contract: every C element gets the floating-point operations
// of gemm's scalar loops, in their order.

/// gemm's scalar loops, serial: the bit-exact reference for the kernels.
void scalar_gemm(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
                 bool ta, const float* b, bool tb, float beta, float* c) {
  constexpr std::size_t kRowBlock = 64, kColBlock = 256, kDepthBlock = 256;
  std::vector<float> a_panel(kRowBlock * kDepthBlock);
  for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const std::size_t i_lim = std::min(i0 + kRowBlock, m);
    for (std::size_t i = i0; i < i_lim; ++i) {
      float* row = c + i * n;
      if (beta == 0.0f) {
        std::fill(row, row + n, 0.0f);
      } else if (beta != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
      }
    }
    for (std::size_t p0 = 0; p0 < k; p0 += kDepthBlock) {
      const std::size_t p_lim = std::min(p0 + kDepthBlock, k);
      const std::size_t depth = p_lim - p0;
      for (std::size_t i = i0; i < i_lim; ++i) {
        float* dst = a_panel.data() + (i - i0) * kDepthBlock;
        for (std::size_t p = p0; p < p_lim; ++p) dst[p - p0] = ta ? a[p * m + i] : a[i * k + p];
      }
      for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
        const std::size_t j_lim = std::min(j0 + kColBlock, n);
        for (std::size_t i = i0; i < i_lim; ++i) {
          const float* a_row = a_panel.data() + (i - i0) * kDepthBlock;
          float* c_row = c + i * n;
          if (!tb) {
            for (std::size_t p = 0; p < depth; ++p) {
              const float av = alpha * a_row[p];
              if (av == 0.0f) continue;
              const float* b_row = b + (p0 + p) * n;
              for (std::size_t j = j0; j < j_lim; ++j) c_row[j] += av * b_row[j];
            }
          } else {
            for (std::size_t j = j0; j < j_lim; ++j) {
              const float* b_row = b + j * k + p0;
              float acc = 0.0f;
              for (std::size_t p = 0; p < depth; ++p) acc += a_row[p] * b_row[p];
              c_row[j] += alpha * acc;
            }
          }
        }
      }
    }
  }
}

/// A float's bits, with every NaN read as one pattern.
std::uint32_t exact_bits(float v) {
  if (std::isnan(v)) return 0x7fc00000u;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

struct ExactGemmCase {
  bool ta, tb;
  float beta;
};

void PrintTo(const ExactGemmCase& c, std::ostream* os) {
  *os << "ta" << c.ta << "_tb" << c.tb << "_beta"
      << (c.beta == 0.5f ? "half" : c.beta == 0.0f ? "0" : "1");
}

class GemmBitExact : public ::testing::TestWithParam<ExactGemmCase> {
 protected:
  /// Every shape runs pooled (from this thread: m*n*k >= 2^18 splits the
  /// rows over the global pool when it has more than one worker) and inline
  /// (inside a ScopedInlineChunks), on `isa`'s entry point. B holds -0,
  /// +-inf and NaN and A exact zeros, so the non-transposed-B path's zero
  /// skip and the transposed-B path's NaN products both show. The n values
  /// cover the register blocks of both lane widths, their one-vector tails
  /// and the scalar edges.
  static void expect_matches_scalar_loops(util::Isa isa) {
    const ExactGemmCase c = GetParam();
    constexpr float kAlpha = 0.75f;
    constexpr float kInf = std::numeric_limits<float>::infinity();
    for (std::size_t m : {1, 3, 4, 5, 64, 65, 130}) {
      for (std::size_t n : {1, 7, 8, 9, 12, 27, 256, 257}) {
        for (std::size_t k : {1, 255, 256, 257, 513}) {
          util::Rng rng(m * 7919 + n * 131 + k);
          std::vector<float> a(m * k), b(k * n), c0(m * n);
          for (float& v : a) v = static_cast<float>(rng.normal());
          for (float& v : b) v = static_cast<float>(rng.normal());
          for (float& v : c0) v = static_cast<float>(rng.normal());
          for (std::size_t i = 0; i < a.size(); i += 5) a[i] = i % 2 == 0 ? 0.0f : -0.0f;
          for (std::size_t i = 3; i < b.size(); i += 11) b[i] = -0.0f;
          b[b.size() / 3] = kInf;
          b[b.size() / 2] = -kInf;
          b[b.size() - 1] = std::numeric_limits<float>::quiet_NaN();

          std::vector<float> expected = c0, pooled = c0, inlined = c0;
          scalar_gemm(m, n, k, kAlpha, a.data(), c.ta, b.data(), c.tb, c.beta,
                      expected.data());
          gemm(isa, m, n, k, kAlpha, a.data(), c.ta, b.data(), c.tb, c.beta, pooled.data());
          {
            parallel::ScopedInlineChunks inline_chunks;
            gemm(isa, m, n, k, kAlpha, a.data(), c.ta, b.data(), c.tb, c.beta, inlined.data());
          }
          for (std::size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(exact_bits(pooled[i]), exact_bits(expected[i]))
                << "pooled m" << m << " n" << n << " k" << k << " at " << i;
            ASSERT_EQ(exact_bits(inlined[i]), exact_bits(expected[i]))
                << "inline m" << m << " n" << n << " k" << k << " at " << i;
          }
        }
      }
    }
  }
};

TEST_P(GemmBitExact, MatchesScalarLoopsBitForBit) {
  expect_matches_scalar_loops(util::Isa::kBaseline);
}

TEST_P(GemmBitExact, Avx2MatchesScalarLoopsBitForBit) {
  if (util::native_isa() != util::Isa::kAvx2) GTEST_SKIP() << "this CPU has no AVX2";
  expect_matches_scalar_loops(util::Isa::kAvx2);
}

INSTANTIATE_TEST_SUITE_P(Transpositions, GemmBitExact,
                         ::testing::Values(ExactGemmCase{false, false, 0.0f},
                                           ExactGemmCase{false, false, 0.5f},
                                           ExactGemmCase{false, false, 1.0f},
                                           ExactGemmCase{false, true, 0.0f},
                                           ExactGemmCase{false, true, 0.5f},
                                           ExactGemmCase{false, true, 1.0f},
                                           ExactGemmCase{true, false, 0.0f},
                                           ExactGemmCase{true, false, 0.5f},
                                           ExactGemmCase{true, false, 1.0f},
                                           ExactGemmCase{true, true, 0.0f},
                                           ExactGemmCase{true, true, 0.5f},
                                           ExactGemmCase{true, true, 1.0f}));

/// ops.h's contract: without transposed B a zero entry of op(A) adds
/// nothing, so 0 * inf never enters C and a -0 in C survives beta = 1; with
/// transposed B every product enters the dot product. 5 x 9 covers both a
/// 4 x 8 register block and the scalar edge rows and columns.
TEST(Gemm, ZeroEntriesOfASkipOnlyWithoutTransposedB) {
  constexpr std::size_t m = 5, n = 9, k = 2;
  const std::vector<float> twos(k * n, 2.0f);  // B and B^T alike
  std::vector<float> a(m * k), c(m * n);
  for (std::size_t i = 0; i < m; ++i) a[i * k + 1] = 1.0f;  // op(A) rows are [0 1]
  // Column 0 of op(B) is inf: row 0 of B (k x n), entry 0 of each B^T row (n x k).
  std::vector<float> b = twos, b_t = twos;
  for (std::size_t j = 0; j < n; ++j) {
    b[j] = std::numeric_limits<float>::infinity();
    b_t[j * k] = std::numeric_limits<float>::infinity();
  }
  gemm(m, n, k, 1.0f, a.data(), false, b.data(), false, 0.0f, c.data());
  for (float v : c) EXPECT_EQ(v, 2.0f);
  gemm(m, n, k, 1.0f, a.data(), false, b_t.data(), true, 0.0f, c.data());
  for (float v : c) EXPECT_TRUE(std::isnan(v));

  // op(A) = 0 onto C = -0 with beta = 1: the skip leaves -0, the dot product
  // adds +0 and leaves +0.
  const std::vector<float> zeros(m * k, 0.0f);
  std::fill(c.begin(), c.end(), -0.0f);
  gemm(m, n, k, 1.0f, zeros.data(), false, twos.data(), false, 1.0f, c.data());
  for (float v : c) EXPECT_TRUE(v == 0.0f && std::signbit(v));
  gemm(m, n, k, 1.0f, zeros.data(), false, twos.data(), true, 1.0f, c.data());
  for (float v : c) EXPECT_TRUE(v == 0.0f && !std::signbit(v));
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
