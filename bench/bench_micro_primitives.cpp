// Microbenchmarks of the four compression primitives of the Sec 3.3 cost
// model (Tm: precision conversion, Tf: FFT, Ts: top-k selection, Tp: see
// bench_packing) plus the end-to-end codecs. The measured bytes/second here
// are this substrate's inputs to the Fig 10 analytic model. BM_Gemm and
// BM_Conv2dBackward time the NN kernels that set an iteration's compute;
// BM_GemmBaseline runs BM_Gemm's shapes on gemm's baseline x86-64 entry
// point, so one run shows what the AVX2 one gains.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/fft/fft.h"
#include "fftgrad/nn/layers.h"
#include "fftgrad/parallel/thread_pool.h"
#include "fftgrad/quant/half.h"
#include "fftgrad/quant/range_float.h"
#include "fftgrad/sparse/topk.h"
#include "fftgrad/telemetry/telemetry.h"
#include "fftgrad/tensor/ops.h"
#include "fftgrad/tensor/tensor.h"
#include "fftgrad/util/cpu.h"
#include "fftgrad/util/rng.h"

namespace {

using namespace fftgrad;

std::vector<float> gradient_like(std::size_t n, double sigma = 0.02) {
  util::Rng rng(7);
  std::vector<float> g(n);
  for (float& v : g) v = static_cast<float>(rng.normal(0.0, sigma));
  return g;
}

// sigma = 1e-3 puts 4.9% of the values in fp16's subnormal range, near the
// MLP gradients' 6.5%; at 0.02 it is 0.24%, which hides a branchy kernel.
void BM_HalfRoundTrip(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)), 1e-3);
  std::vector<float> out(g.size());
  for (auto _ : state) {
    quant::half_round_trip(g, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_HalfRoundTrip)->Arg(1 << 18)->Arg(1 << 21);

void BM_RangeQuantEncode(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  const quant::RangeFloat codec = quant::RangeFloat::tune(10, -1.0f, 1.0f, g);
  std::vector<std::uint32_t> codes(g.size());
  for (auto _ : state) {
    codec.encode(g, codes);
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_RangeQuantEncode)->Arg(1 << 18)->Arg(1 << 21);

void BM_FftForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto g = gradient_like(n);
  fft::FftPlan plan(n);
  std::vector<fft::cfloat> bins(plan.real_bins());
  for (auto _ : state) {
    plan.rfft(g, bins);
    benchmark::DoNotOptimize(bins.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
void BM_FftInverse(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto g = gradient_like(n);
  fft::FftPlan plan(n);
  std::vector<fft::cfloat> bins(plan.real_bins());
  plan.rfft(g, bins);
  std::vector<float> out(n);
  for (auto _ : state) {
    plan.irfft(bins, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}

/// 2^20 + 1 runs the full-length Bluestein path. The repository benchmark's
/// sizes follow: 333,834 (the MLP gradient; its 166,917-point half runs
/// Bluestein), 15,013 (ResNetMini's odd prime), 65,536 (a chunk, 2^16) and
/// 6,154 (the chunked codec's tail; its 3,077-point half runs Bluestein).
/// Timed on the wall clock: the large Bluestein transforms run on pool
/// workers, so the calling thread's CPU time would read near zero.
void fft_sizes(benchmark::internal::Benchmark* b) {
  b->Arg(1 << 16)->Arg(1 << 20)->Arg((1 << 20) + 1)->Arg(333834)->Arg(15013)->Arg(6154);
  b->UseRealTime();
}
BENCHMARK(BM_FftForward)->Apply(fft_sizes);
BENCHMARK(BM_FftInverse)->Apply(fft_sizes);

/// Both codecs keep k = 15% (theta 0.85) through sparse::topk_mask: the
/// FFT codec over the 166,918 bins of a 333,834-float gradient's real
/// spectrum, the Top-k codec over the gradient itself. BM_TopKSelect times
/// the select alone, BM_TopKMask the whole call. Timed on the wall clock:
/// the first digit's histogram and the mask words run on pool workers.
void topk_sizes(benchmark::internal::Benchmark* b) {
  b->Arg(166918)->Arg(333834);
  b->UseRealTime();
}

std::size_t codec_k(std::size_t n) {
  return static_cast<std::size_t>(std::llround(0.15 * static_cast<double>(n)));
}

void BM_TopKSelect(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  const std::size_t k = codec_k(g.size());
  for (auto _ : state) {
    auto result = sparse::topk_threshold(g, k);
    benchmark::DoNotOptimize(result.threshold);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_TopKSelect)->Apply(topk_sizes);

void BM_TopKMask(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  const std::size_t k = codec_k(g.size());
  for (auto _ : state) {
    const sparse::Bitmap mask = sparse::topk_mask(g, k);
    benchmark::DoNotOptimize(mask.words().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_TopKMask)->Apply(topk_sizes);

void BM_FftCompressorEndToEnd(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  core::FftCompressor codec({.theta = 0.85, .quantizer_bits = 10});
  std::vector<float> recon(g.size());
  for (auto _ : state) {
    const core::Packet p = codec.compress(g);
    codec.decompress(p, recon);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
// The workloads' sizes: the MLP-512 gradient, a chunked:65536 chunk and
// the ResNetMini gradient.
BENCHMARK(BM_FftCompressorEndToEnd)->Arg(333834)->Arg(65536)->Arg(15013)->UseRealTime();

void BM_TopKCompressorEndToEnd(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  core::TopKCompressor codec(0.85);
  std::vector<float> recon(g.size());
  for (auto _ : state) {
    const core::Packet p = codec.compress(g);
    codec.decompress(p, recon);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_TopKCompressorEndToEnd)->Arg(1 << 18)->UseRealTime();

void BM_QsgdCompressorEndToEnd(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  core::QsgdCompressor codec(3);
  std::vector<float> recon(g.size());
  for (auto _ : state) {
    const core::Packet p = codec.compress(g);
    codec.decompress(p, recon);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_QsgdCompressorEndToEnd)->Arg(1 << 18)->UseRealTime();

void BM_TernGradCompressorEndToEnd(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  core::TernGradCompressor codec;
  std::vector<float> recon(g.size());
  for (auto _ : state) {
    const core::Packet p = codec.compress(g);
    codec.decompress(p, recon);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_TernGradCompressorEndToEnd)->Arg(1 << 18)->UseRealTime();

/// gemm at its training shapes (m, n, k, transpose_a, transpose_b): conv dW
/// 16x144x256 NT (dY col^T), conv forward 16x256x144 NN (W col), dcol
/// 144x256x16 TN (W^T dY) and dense forward 16x512x512 NT (x W^T). Runs on
/// the calling thread, as on a cluster_train rank thread when the ranks fill
/// the pool; items are multiply-adds.
void run_gemm(benchmark::State& state, util::Isa isa) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const bool ta = state.range(3) != 0, tb = state.range(4) != 0;
  const auto a = gradient_like(m * k);
  const auto b = gradient_like(k * n);
  std::vector<float> c(m * n);
  parallel::ScopedInlineChunks inline_chunks;
  for (auto _ : state) {
    tensor::gemm(isa, m, n, k, 1.0f, a.data(), ta, b.data(), tb, 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * n * k));
}

void BM_Gemm(benchmark::State& state) { run_gemm(state, util::native_isa()); }
void BM_GemmBaseline(benchmark::State& state) { run_gemm(state, util::Isa::kBaseline); }

// ResNetMini's conv dW (B^T), conv forward, conv dcol, and an MLP-512
// Dense forward.
void gemm_shapes(benchmark::internal::Benchmark* b) {
  b->Args({16, 144, 256, 0, 1})
      ->Args({16, 256, 144, 0, 0})
      ->Args({144, 256, 16, 1, 0})
      ->Args({16, 512, 512, 0, 1})
      ->UseRealTime();
}
BENCHMARK(BM_Gemm)->Apply(gemm_shapes);
BENCHMARK(BM_GemmBaseline)->Apply(gemm_shapes);

/// One ResNetMini residual-block convolution's backward (16 -> 16 channels,
/// 3x3, 16x16 images, batch 16): per image an im2col, the dW and dcol GEMMs
/// and a col2im. On the calling thread, as BM_Gemm.
void BM_Conv2dBackward(benchmark::State& state) {
  util::Rng rng(7);
  nn::Conv2d conv(16, 16, 3, 1, 1, rng);
  const tensor::Tensor x = tensor::Tensor::randn({16, 16, 16, 16}, rng);
  const tensor::Tensor dy = tensor::Tensor::randn({16, 16, 16, 16}, rng, 0.0f, 0.02f);
  parallel::ScopedInlineChunks inline_chunks;
  conv.forward(x);
  for (auto _ : state) {
    const tensor::Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Conv2dBackward)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  fftgrad::telemetry::init_from_env();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
