#include "fftgrad/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "fftgrad/parallel/parallel_for.h"

namespace fftgrad::tensor {
namespace {

// Row-panel height per task; chosen so a panel of A plus a block of B fits
// comfortably in L2.
constexpr std::size_t kRowBlock = 64;
constexpr std::size_t kColBlock = 256;
constexpr std::size_t kDepthBlock = 256;
// The transposed-B micro-kernel's register block: 4 rows by 8 columns of C.
constexpr std::size_t kMicroRows = 4;
constexpr std::size_t kMicroCols = 8;

// Four float lanes. Arithmetic on it is lane-wise IEEE single precision (SSE2
// on baseline x86-64, which has no FMA to contract into), so a lane rounds
// exactly as a scalar float does.
using f32x4 = float __attribute__((vector_size(16)));

inline const float* element_ptr(const float* base, bool transposed, std::size_t rows,
                                std::size_t cols, std::size_t r, std::size_t c) {
  (void)rows;
  return transposed ? base + c * rows + r : base + r * cols + c;
}

/// c[r][j] += alpha * sum_p a[r][p] * panel[p][j] for 4 rows of `a` (stride
/// `lda`) and the 8 columns of a B^T panel, [depth][2] vectors of 4 columns.
/// Each sum starts at 0 and adds its products in ascending p, as the scalar
/// dot product does.
void micro_kernel_4x8(const float* a, std::size_t lda, const f32x4* panel, std::size_t depth,
                      float alpha, float* c, std::size_t ldc) {
  f32x4 acc00{}, acc01{}, acc10{}, acc11{}, acc20{}, acc21{}, acc30{}, acc31{};
  for (std::size_t p = 0; p < depth; ++p) {
    const f32x4 b0 = panel[2 * p];
    const f32x4 b1 = panel[2 * p + 1];
    const float a0 = a[p], a1 = a[lda + p], a2 = a[2 * lda + p], a3 = a[3 * lda + p];
    acc00 += a0 * b0;
    acc01 += a0 * b1;
    acc10 += a1 * b0;
    acc11 += a1 * b1;
    acc20 += a2 * b0;
    acc21 += a2 * b1;
    acc30 += a3 * b0;
    acc31 += a3 * b1;
  }
  const auto update = [alpha](float* row, f32x4 lo, f32x4 hi) {
    for (int lane = 0; lane < 4; ++lane) {
      row[lane] += alpha * lo[lane];
      row[4 + lane] += alpha * hi[lane];
    }
  };
  update(c, acc00, acc01);
  update(c + ldc, acc10, acc11);
  update(c + 2 * ldc, acc20, acc21);
  update(c + 3 * ldc, acc30, acc31);
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
          bool transpose_a, const float* b, bool transpose_b, float beta, float* c) {
  if (m == 0 || n == 0) return;

  auto run_rows = [&](std::size_t row_begin, std::size_t row_end) {
    // Pack the needed stripe of A once per row block to make the inner loop
    // a unit-stride dot product regardless of transposition.
    const std::size_t panel_depth = std::min(k, kDepthBlock);
    std::vector<float> a_panel(std::min(row_end - row_begin, kRowBlock) * panel_depth);
    std::vector<f32x4> b_panel(transpose_b ? panel_depth * 2 : 0);
    for (std::size_t i0 = row_begin; i0 < row_end; i0 += kRowBlock) {
      const std::size_t i_lim = std::min(i0 + kRowBlock, row_end);
      // beta pass over this row stripe.
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
          float* dst = a_panel.data() + (i - i0) * panel_depth;
          for (std::size_t p = p0; p < p_lim; ++p) {
            dst[p - p0] = *element_ptr(a, transpose_a, m, k, i, p);
          }
        }
        if (!transpose_b) {
          for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
            const std::size_t j_lim = std::min(j0 + kColBlock, n);
            for (std::size_t i = i0; i < i_lim; ++i) {
              const float* a_row = a_panel.data() + (i - i0) * panel_depth;
              float* c_row = c + i * n;
              // B row-major (k x n): accumulate rank-1 style over p for
              // unit-stride access to both B and C.
              for (std::size_t p = 0; p < depth; ++p) {
                const float av = alpha * a_row[p];
                if (av == 0.0f) continue;
                const float* b_row = b + (p0 + p) * n;
                for (std::size_t j = j0; j < j_lim; ++j) c_row[j] += av * b_row[j];
              }
            }
          }
          continue;
        }
        // B^T stored (n x k): 4x8 register blocks over a packed [depth][8]
        // panel of B^T rows; edge rows and columns take the scalar dot.
        const std::size_t block_rows = (i_lim - i0) / kMicroRows * kMicroRows;
        const std::size_t block_cols = n / kMicroCols * kMicroCols;
        for (std::size_t j = 0; j < block_cols; j += kMicroCols) {
          for (std::size_t jj = 0; jj < kMicroCols; ++jj) {
            const float* b_row = b + (j + jj) * k + p0;
            for (std::size_t p = 0; p < depth; ++p) b_panel[2 * p + jj / 4][jj % 4] = b_row[p];
          }
          for (std::size_t r = 0; r < block_rows; r += kMicroRows) {
            micro_kernel_4x8(a_panel.data() + r * panel_depth, panel_depth, b_panel.data(), depth,
                             alpha, c + (i0 + r) * n + j, n);
          }
        }
        for (std::size_t i = i0; i < i_lim; ++i) {
          const float* a_row = a_panel.data() + (i - i0) * panel_depth;
          float* c_row = c + i * n;
          for (std::size_t j = i - i0 < block_rows ? block_cols : 0; j < n; ++j) {
            const float* b_row = b + j * k + p0;
            float acc = 0.0f;
            for (std::size_t p = 0; p < depth; ++p) acc += a_row[p] * b_row[p];
            c_row[j] += alpha * acc;
          }
        }
      }
    }
  };

  // A thread that runs its chunks inline gains nothing from splitting the
  // rows: each chunk would allocate and pack its own panels.
  auto& pool = parallel::ThreadPool::global();
  if (m * n * k < (std::size_t{1} << 18) || pool.size() == 1 || parallel::runs_chunks_inline()) {
    run_rows(0, m);
    return;
  }
  parallel::parallel_for(pool, m, run_rows);
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<float> y, float factor) {
  for (float& v : y) v *= factor;
}

void softmax_rows(std::span<float> logits, std::size_t rows, std::size_t cols) {
  if (logits.size() != rows * cols) throw std::invalid_argument("softmax_rows: size mismatch");
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = logits.data() + r * cols;
    float peak = row[0];
    for (std::size_t j = 1; j < cols; ++j) peak = std::max(peak, row[j]);
    float total = 0.0f;
    for (std::size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - peak);
      total += row[j];
    }
    const float inv = 1.0f / total;
    for (std::size_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

double sum(std::span<const float> x) {
  double total = 0.0;
  for (float v : x) total += v;
  return total;
}

void argmax_rows(std::span<const float> values, std::size_t rows, std::size_t cols,
                 std::span<std::size_t> out) {
  if (values.size() != rows * cols || out.size() != rows) {
    throw std::invalid_argument("argmax_rows: size mismatch");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = values.data() + r * cols;
    std::size_t best = 0;
    for (std::size_t j = 1; j < cols; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[r] = best;
  }
}

}  // namespace fftgrad::tensor
