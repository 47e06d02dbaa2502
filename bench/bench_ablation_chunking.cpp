// Ablation: whole-gradient FFT compression vs chunked (per-layer style)
// compression. Chunking is what a production integration needs for
// compute/communication overlap; this bench quantifies what it costs in
// wire size (per-chunk headers and masks) and reconstruction error (top-k
// is allocated per chunk instead of globally) and what it buys in codec
// speed (many small power-of-two FFTs vs one large, possibly Bluestein,
// transform).
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "fftgrad/core/chunked_compressor.h"
#include "fftgrad/core/compression_stats.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/util/timer.h"

int main() {
  using namespace fftgrad;
  // Deliberately awkward length: a whole-gradient transform takes the
  // Bluestein path while power-of-two chunks run the kernel directly.
  std::vector<float> grad = bench::trained_mlp_gradient(20);
  while (grad.size() < 200000) {
    const std::size_t n = grad.size();
    for (std::size_t i = 0; i < n && grad.size() < 200001; ++i) {
      grad.push_back(grad[i] * 0.9f);  // self-similar extension
    }
  }

  auto fft_factory = [](std::size_t) {
    return std::make_unique<core::FftCompressor>(
        core::FftCompressorOptions{.theta = 0.85, .quantizer_bits = 10});
  };

  bench::print_header("Ablation: whole-gradient vs chunked FFT compression (n=" +
                      std::to_string(grad.size()) + ")");
  util::TableWriter table({"chunk_elems", "ratio", "alpha", "rms_err", "codec_ms"});
  table.set_double_format("%.4f");

  auto measure = [&](core::GradientCompressor& codec, const std::string& label) {
    std::vector<float> recon;
    util::WallTimer timer;
    const core::RoundTripStats stats = core::measure_round_trip(codec, grad, recon);
    const double ms = timer.milliseconds();
    table.add_row({label, stats.ratio, stats.alpha, stats.rms_error, ms});
  };

  {
    core::FftCompressor whole({.theta = 0.85, .quantizer_bits = 10});
    measure(whole, "whole");
  }
  for (std::size_t chunk : {1u << 18, 1u << 16, 1u << 14, 1u << 12, 1u << 10}) {
    core::ChunkedCompressor chunked(fft_factory, chunk);
    measure(chunked, std::to_string(chunk));
  }
  bench::print_table(table);
  std::puts("\nExpected shape: power-of-two chunks are markedly faster than the whole-\n"
            "gradient Bluestein transform at nearly the same ratio; very small chunks\n"
            "start paying per-chunk header overhead and lose ratio.");
  return 0;
}
