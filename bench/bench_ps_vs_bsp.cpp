// Extension experiment for the paper's Fig 1 / Sec 2 discussion: Parameter
// Server vs BSP allreduce-style exchange. The PS funnels every worker's
// (compressed) gradient through one server link and fans parameters back
// out, so its iteration time grows ~2p in message units, while the ring
// allgather grows ~(p-1) in block units and exploits all links. Compression
// narrows PS's gap (smaller pushes) but cannot fix the parameter pull.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"

namespace {

using namespace fftgrad;

double iteration_time(core::CommScheme scheme, std::size_t ranks,
                      const core::CompressorFactory& factory) {
  util::Rng rng(31);
  core::TrainerConfig cfg;
  cfg.ranks = ranks;
  cfg.batch_per_rank = 4;
  cfg.epochs = 1;
  cfg.iters_per_epoch = 3;
  cfg.test_size = 32;
  cfg.scheme = scheme;
  cfg.record_alpha = false;
  cfg.paper_scale =
      core::PaperScale{.raw_gradient_bytes = 250e6, .compute_seconds = util::SimSeconds(0.140)};
  core::DistributedTrainer trainer(nn::models::make_mlp(16, 24, 2, 4, rng),
                                   nn::SyntheticDataset({16}, 4, 33), cfg);
  nn::StepLrSchedule lr({{0, 0.02f}});
  return trainer.train(factory, core::FixedTheta(0.85), lr).mean_iteration_time_s.to_double();
}

}  // namespace

int main() {
  auto noop = [](std::size_t) { return std::make_unique<core::NoopCompressor>(); };
  auto fft = [](std::size_t) {
    return std::make_unique<core::FftCompressor>(
        core::FftCompressorOptions{.theta = 0.85, .quantizer_bits = 10});
  };

  fftgrad::bench::print_header(
      "Extension: BSP allgather vs Parameter Server (250MB gradients, FDR56)");
  fftgrad::util::TableWriter table({"ranks", "BSP fp32 (s)", "PS fp32 (s)", "BSP+FFT (s)",
                                    "PS+FFT (s)", "PS/BSP fp32"});
  table.set_double_format("%.3f");
  for (std::size_t ranks : {2, 4, 8, 16, 32}) {
    const double bsp = iteration_time(core::CommScheme::kBspAllgather, ranks, noop);
    const double ps = iteration_time(core::CommScheme::kParameterServer, ranks, noop);
    const double bsp_fft = iteration_time(core::CommScheme::kBspAllgather, ranks, fft);
    const double ps_fft = iteration_time(core::CommScheme::kParameterServer, ranks, fft);
    table.add_row({static_cast<long long>(ranks), bsp, ps, bsp_fft, ps_fft, ps / bsp});
  }
  fftgrad::bench::print_table(table);
  std::puts("\nExpected shape: PS falls progressively behind BSP as ranks grow (server-link\n"
            "congestion, the paper's motivation for allreduce-style exchange); compression\n"
            "helps both but cannot remove the PS parameter-pull bottleneck.");
  return 0;
}
