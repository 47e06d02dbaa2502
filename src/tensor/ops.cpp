#include "fftgrad/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/util/scratch.h"

namespace fftgrad::tensor {
namespace {

// Row-panel height per task; chosen so a panel of A plus a block of B fits
// comfortably in L2.
constexpr std::size_t kRowBlock = 64;
constexpr std::size_t kDepthBlock = 256;
// The transposed-B micro-kernel's register block: 4 rows of C by two
// vectors of columns (4x8 on 4 lanes, 4x16 on 8), then one vector.
constexpr std::size_t kMicroRows = 4;

// Float lanes: 4 for the baseline entry point (SSE2 on x86-64) and 8 for the
// AVX2 one, which alone uses the 32-byte type. Arithmetic on them is
// lane-wise IEEE single precision with no FMA to contract into, so a lane
// rounds exactly as a scalar float does.
using f32x4 = float __attribute__((vector_size(16)));
using f32x8 = float __attribute__((vector_size(32)));

// Roles of the per-thread scratch (util::thread_scratch) behind the packed
// panels and the rank-1 path's term indices.
struct APanelScratch;
struct BPanelScratch;
struct TermScratch;

/// One vector from the floats at `p`, and back. Lane by lane, which the
/// compiler turns into one unaligned load or store: no buffer here is
/// aligned to a vector (thread_scratch's are 16-byte aligned at best).
template <typename V>
[[gnu::always_inline]] inline void load(V& v, const float* p) {
  for (std::size_t lane = 0; lane < sizeof(V) / sizeof(float); ++lane) v[lane] = p[lane];
}

template <typename V>
[[gnu::always_inline]] inline void store(float* p, const V& v) {
  for (std::size_t lane = 0; lane < sizeof(V) / sizeof(float); ++lane) p[lane] = v[lane];
}

struct GemmArgs {
  std::size_t m, n, k;
  float alpha;
  const float* a;
  bool transpose_a;
  const float* b;
  bool transpose_b;
  float beta;
  float* c;
};

/// c[0..lanes) += alpha * acc.
template <typename V>
[[gnu::always_inline]] inline void add_scaled(float* c, const V& acc, float alpha) {
  V row;
  load(row, c);
  row += alpha * acc;
  store(c, row);
}

/// c[r][j] += alpha * sum_p a[r][p] * panel[p][j] for 4 rows of `a` (stride
/// `lda`) and the kVecs (1 or 2) vectors of columns in a packed
/// [depth][kVecs] panel of B^T rows. Each sum starts at 0 and adds its
/// products in ascending p, as the scalar dot product does. The
/// accumulators are named, not an array, so they stay in registers.
template <typename V, std::size_t kVecs>
[[gnu::always_inline]] inline void micro_kernel(const float* a, std::size_t lda,
                                                const float* panel, std::size_t depth,
                                                float alpha, float* c, std::size_t ldc) {
  static_assert(kVecs == 1 || kVecs == 2);
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  V acc00{}, acc01{}, acc10{}, acc11{}, acc20{}, acc21{}, acc30{}, acc31{};
  for (std::size_t p = 0; p < depth; ++p) {
    V b0;
    load(b0, panel + p * kVecs * kLanes);
    const float a0 = a[p], a1 = a[lda + p], a2 = a[2 * lda + p], a3 = a[3 * lda + p];
    acc00 += a0 * b0;
    acc10 += a1 * b0;
    acc20 += a2 * b0;
    acc30 += a3 * b0;
    if constexpr (kVecs == 2) {
      V b1;
      load(b1, panel + p * kVecs * kLanes + kLanes);
      acc01 += a0 * b1;
      acc11 += a1 * b1;
      acc21 += a2 * b1;
      acc31 += a3 * b1;
    }
  }
  add_scaled(c, acc00, alpha);
  add_scaled(c + ldc, acc10, alpha);
  add_scaled(c + 2 * ldc, acc20, alpha);
  add_scaled(c + 3 * ldc, acc30, alpha);
  if constexpr (kVecs == 2) {
    add_scaled(c + kLanes, acc01, alpha);
    add_scaled(c + ldc + kLanes, acc11, alpha);
    add_scaled(c + 2 * ldc + kLanes, acc21, alpha);
    add_scaled(c + 3 * ldc + kLanes, acc31, alpha);
  }
}

/// c[j] += av[t] * b[p[t] * ldb + j] over the `terms` nonzero terms of one
/// row of op(A), t ascending, for the kVecs (1 or 8) vectors of columns at
/// `c`; `b` points at the same columns of the depth block's first row. C
/// stays in registers across the terms, and each element gets its
/// additions in p order, as ops.h requires. Eight
/// accumulators hide the add latency; they are named, not an array, so
/// they stay in registers.
template <typename V, std::size_t kVecs>
[[gnu::always_inline]] inline void rank1_block(float* c, const float* b, std::size_t ldb,
                                               const float* av, const std::uint32_t* p,
                                               std::size_t terms) {
  static_assert(kVecs == 1 || kVecs == 8);
  constexpr std::size_t L = sizeof(V) / sizeof(float);
  V acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7;
  load(acc0, c);
  if constexpr (kVecs == 8) {
    load(acc1, c + L);
    load(acc2, c + 2 * L);
    load(acc3, c + 3 * L);
    load(acc4, c + 4 * L);
    load(acc5, c + 5 * L);
    load(acc6, c + 6 * L);
    load(acc7, c + 7 * L);
  }
  for (std::size_t t = 0; t < terms; ++t) {
    const float* b_row = b + p[t] * ldb;
    const float a = av[t];
    V bv;
    load(bv, b_row);
    acc0 += a * bv;
    if constexpr (kVecs == 8) {
      load(bv, b_row + L);
      acc1 += a * bv;
      load(bv, b_row + 2 * L);
      acc2 += a * bv;
      load(bv, b_row + 3 * L);
      acc3 += a * bv;
      load(bv, b_row + 4 * L);
      acc4 += a * bv;
      load(bv, b_row + 5 * L);
      acc5 += a * bv;
      load(bv, b_row + 6 * L);
      acc6 += a * bv;
      load(bv, b_row + 7 * L);
      acc7 += a * bv;
    }
  }
  store(c, acc0);
  if constexpr (kVecs == 8) {
    store(c + L, acc1);
    store(c + 2 * L, acc2);
    store(c + 3 * L, acc3);
    store(c + 4 * L, acc4);
    store(c + 5 * L, acc5);
    store(c + 6 * L, acc6);
    store(c + 7 * L, acc7);
  }
}

/// Packs columns [j, j + kVecs * lanes) of the B^T depth block starting at
/// p0 into a [depth][kVecs * lanes] panel, then runs the micro-kernel over
/// the first `block_rows` rows of the A panel.
template <typename V, std::size_t kVecs>
[[gnu::always_inline]] inline void column_block(const GemmArgs& g, const float* a_panel,
                                                std::size_t panel_depth, float* b_panel,
                                                std::size_t i0, std::size_t block_rows,
                                                std::size_t p0, std::size_t depth,
                                                std::size_t j) {
  constexpr std::size_t kWidth = kVecs * sizeof(V) / sizeof(float);
  for (std::size_t jj = 0; jj < kWidth; ++jj) {
    const float* b_row = g.b + (j + jj) * g.k + p0;
    for (std::size_t p = 0; p < depth; ++p) b_panel[p * kWidth + jj] = b_row[p];
  }
  for (std::size_t r = 0; r < block_rows; r += kMicroRows) {
    micro_kernel<V, kVecs>(a_panel + r * panel_depth, panel_depth, b_panel, depth, g.alpha,
                           g.c + (i0 + r) * g.n + j, g.n);
  }
}

/// Rows [row_begin, row_end) of C, on vectors of type V. The body of both
/// entry points below; ops.h gives the order of every C element's
/// operations, which no blocking here changes.
template <typename V>
[[gnu::always_inline]] inline void gemm_rows(const GemmArgs& g, std::size_t row_begin,
                                             std::size_t row_end) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  const std::size_t n = g.n, k = g.k;
  // Pack the needed stripe of A once per row block to make the inner loop
  // a unit-stride dot product regardless of transposition.
  const std::size_t panel_depth = std::min(k, kDepthBlock);
  float* const a_panel =
      util::thread_scratch<float, APanelScratch>(std::min(row_end - row_begin, kRowBlock) *
                                                 panel_depth)
          .data();
  float* const b_panel =
      util::thread_scratch<float, BPanelScratch>(g.transpose_b ? panel_depth * 2 * kLanes : 0)
          .data();
  std::uint32_t* const term_p =
      util::thread_scratch<std::uint32_t, TermScratch>(
          g.transpose_b ? 0 : std::min(row_end - row_begin, kRowBlock) * panel_depth)
          .data();
  std::size_t terms[kRowBlock];
  for (std::size_t i0 = row_begin; i0 < row_end; i0 += kRowBlock) {
    const std::size_t i_lim = std::min(i0 + kRowBlock, row_end);
    // beta pass over this row stripe.
    for (std::size_t i = i0; i < i_lim; ++i) {
      float* row = g.c + i * n;
      if (g.beta == 0.0f) {
        std::fill(row, row + n, 0.0f);
      } else if (g.beta != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) row[j] *= g.beta;
      }
    }
    for (std::size_t p0 = 0; p0 < k; p0 += kDepthBlock) {
      const std::size_t p_lim = std::min(p0 + kDepthBlock, k);
      const std::size_t depth = p_lim - p0;
      for (std::size_t i = i0; i < i_lim; ++i) {
        float* dst = a_panel + (i - i0) * panel_depth;
        if (g.transpose_a) {
          for (std::size_t p = p0; p < p_lim; ++p) dst[p - p0] = g.a[p * g.m + i];
        } else {
          std::copy(g.a + i * k + p0, g.a + i * k + p_lim, dst);
        }
      }
      if (!g.transpose_b) {
        // B row-major (k x n): accumulate rank-1 style over p, unit stride
        // in B and C. A row's terms av = alpha * op(A)[i][p] that are zero
        // add nothing, so each row of the A panel is first rewritten in
        // place as its other terms, p ascending (the write index never
        // passes the read index). Then each block of C columns takes every
        // row's terms in registers, while its stripe of B stays in cache;
        // the last columns take them one at a time.
        for (std::size_t i = i0; i < i_lim; ++i) {
          float* row = a_panel + (i - i0) * panel_depth;
          std::uint32_t* row_p = term_p + (i - i0) * panel_depth;
          std::size_t count = 0;
          for (std::size_t p = 0; p < depth; ++p) {
            const float av = g.alpha * row[p];
            row[count] = av;
            row_p[count] = static_cast<std::uint32_t>(p);
            count += av != 0.0f ? 1 : 0;
          }
          terms[i - i0] = count;
        }
        const float* b_block = g.b + p0 * n;
        std::size_t j = 0;
        for (; j + 8 * kLanes <= n; j += 8 * kLanes) {
          for (std::size_t r = 0; r < i_lim - i0; ++r) {
            rank1_block<V, 8>(g.c + (i0 + r) * n + j, b_block + j, n, a_panel + r * panel_depth,
                              term_p + r * panel_depth, terms[r]);
          }
        }
        for (; j + kLanes <= n; j += kLanes) {
          for (std::size_t r = 0; r < i_lim - i0; ++r) {
            rank1_block<V, 1>(g.c + (i0 + r) * n + j, b_block + j, n, a_panel + r * panel_depth,
                              term_p + r * panel_depth, terms[r]);
          }
        }
        for (std::size_t r = 0; r < i_lim - i0; ++r) {
          const float* av = a_panel + r * panel_depth;
          const std::uint32_t* p = term_p + r * panel_depth;
          float* c_row = g.c + (i0 + r) * n;
          for (std::size_t jj = j; jj < n; ++jj) {
            float acc = c_row[jj];
            for (std::size_t t = 0; t < terms[r]; ++t) acc += av[t] * b_block[p[t] * n + jj];
            c_row[jj] = acc;
          }
        }
        continue;
      }
      // B^T stored (n x k): 4-row register blocks over packed panels of
      // B^T rows, two vectors wide, then one; edge rows and columns take
      // the scalar dot.
      const std::size_t block_rows = (i_lim - i0) / kMicroRows * kMicroRows;
      std::size_t block_cols = 0;
      for (; block_cols + 2 * kLanes <= n; block_cols += 2 * kLanes) {
        column_block<V, 2>(g, a_panel, panel_depth, b_panel, i0, block_rows, p0, depth,
                           block_cols);
      }
      if (block_cols + kLanes <= n) {
        column_block<V, 1>(g, a_panel, panel_depth, b_panel, i0, block_rows, p0, depth,
                           block_cols);
        block_cols += kLanes;
      }
      for (std::size_t i = i0; i < i_lim; ++i) {
        const float* a_row = a_panel + (i - i0) * panel_depth;
        float* c_row = g.c + i * n;
        for (std::size_t j = i - i0 < block_rows ? block_cols : 0; j < n; ++j) {
          const float* b_row = g.b + j * k + p0;
          float acc = 0.0f;
          for (std::size_t p = 0; p < depth; ++p) acc += a_row[p] * b_row[p];
          c_row[j] += g.alpha * acc;
        }
      }
    }
  }
}

// The two entry points. Neither names FMA: see util/cpu.h.
FFTGRAD_TARGET_AVX2 void gemm_rows_avx2(const GemmArgs& g, std::size_t row_begin,
                                            std::size_t row_end) {
  gemm_rows<f32x8>(g, row_begin, row_end);
}

void gemm_rows_baseline(const GemmArgs& g, std::size_t row_begin, std::size_t row_end) {
  gemm_rows<f32x4>(g, row_begin, row_end);
}

}  // namespace

void gemm(util::Isa isa, std::size_t m, std::size_t n, std::size_t k, float alpha,
          const float* a, bool transpose_a, const float* b, bool transpose_b, float beta,
          float* c) {
  if (m == 0 || n == 0) return;
  if (isa == util::Isa::kAvx2 && !util::cpu_has_avx2()) {
    throw std::invalid_argument("gemm: this CPU has no AVX2");
  }
  const GemmArgs args{m, n, k, alpha, a, transpose_a, b, transpose_b, beta, c};
  const auto run_rows = isa == util::Isa::kAvx2 ? gemm_rows_avx2 : gemm_rows_baseline;
  // A thread that runs its chunks inline gains nothing from splitting the
  // rows: each chunk would pack its own panels.
  auto& pool = parallel::ThreadPool::global();
  if (m * n * k < (std::size_t{1} << 18) || pool.size() == 1 || parallel::runs_chunks_inline()) {
    run_rows(args, 0, m);
    return;
  }
  parallel::parallel_for(pool, m, [&](std::size_t begin, std::size_t end) {
    run_rows(args, begin, end);
  });
}

void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
          bool transpose_a, const float* b, bool transpose_b, float beta, float* c) {
  gemm(util::native_isa(), m, n, k, alpha, a, transpose_a, b, transpose_b, beta, c);
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
