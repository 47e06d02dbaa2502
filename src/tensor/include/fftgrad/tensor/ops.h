// Tensor kernels used by the NN layers: GEMM (the workhorse of Dense and
// im2col-based Conv2d), axpy-style elementwise updates, and softmax.
// GEMM is blocked for cache reuse and parallelized across row panels; with
// transposed B it runs a register-blocked kernel, 4x8 on the baseline
// build's 4-lane vectors and 4x16 on AVX2's 8 lanes (util/cpu.h).
#pragma once

#include <cstddef>
#include <span>

#include "fftgrad/tensor/tensor.h"
#include "fftgrad/util/cpu.h"

namespace fftgrad::tensor {

/// C(m x n) = alpha * op(A) * op(B) + beta * C, row-major.
/// op(A) is A (m x k) or A^T when transpose_a (A stored k x m); same for B.
///
/// Rounding contract. Replicas, packets and golden outputs depend on every
/// C element getting these float operations in this order, whatever the
/// thread count or blocking:
///   1. beta == 0: c = 0 (C is not read); beta == 1: c unchanged; else
///      c *= beta.
///   2. For each depth block [p0, min(p0 + 256, k)), p0 ascending:
///      - !transpose_b: for p ascending, av = alpha * op(A)[i][p]; if
///        av == 0 nothing is added, else c += av * op(B)[p][j];
///      - transpose_b: acc = 0; for p ascending acc += op(A)[i][p] *
///        op(B)[p][j]; then c += alpha * acc.
/// So without transposed B a zero entry of op(A) adds nothing (0 * inf or
/// 0 * NaN in B never enters C, and a -0 in C survives beta = 1); with
/// transposed B every product enters the dot product, so the same
/// 0 * inf makes c NaN.
///
/// Runs on util::native_isa()'s entry point.
void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
          bool transpose_a, const float* b, bool transpose_b, float beta, float* c);

/// The same product on `isa`'s entry point, which gives the same bits as
/// every other. Throws std::invalid_argument when this CPU cannot run it.
void gemm(util::Isa isa, std::size_t m, std::size_t n, std::size_t k, float alpha,
          const float* a, bool transpose_a, const float* b, bool transpose_b, float beta,
          float* c);

/// y += alpha * x (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// y = y * scale.
void scale(std::span<float> y, float factor);

/// In-place row-wise softmax of a (rows x cols) matrix.
void softmax_rows(std::span<float> logits, std::size_t rows, std::size_t cols);

/// Sum of all elements.
double sum(std::span<const float> x);

/// Index of the max element of each row; out must have `rows` entries.
void argmax_rows(std::span<const float> values, std::size_t rows, std::size_t cols,
                 std::span<std::size_t> out);

}  // namespace fftgrad::tensor
