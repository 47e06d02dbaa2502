// Distributed training end-to-end: train the same model on a simulated
// 8-rank FDR InfiniBand cluster with lossless SGD and with the FFT
// compressor, and compare accuracy and simulated wall time — the workflow
// behind the paper's Fig 14 / Table 2, at example scale.
//
// Build & run:  ./build/examples/distributed_training
//
// Run ledger:  FFTGRAD_LEDGER=train.jsonl ./build/examples/distributed_training
// records each of the three runs as its own ledger run (manifest +
// per-iteration rows + summary); `run_report train.jsonl` then prints the
// per-phase breakdown, the model-error table per collective, and a
// cross-run diff of the three codecs.
#include <cstdio>
#include <memory>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/telemetry/telemetry.h"

int main() {
  fftgrad::telemetry::init_from_env();
  using namespace fftgrad;
  if (telemetry::RunLedger::global().enabled()) {
    std::printf("run ledger active; aggregate afterwards with:  "
                "./build/examples/run_report \"$FFTGRAD_LEDGER\"\n");
  }

  util::Rng rng(7);
  core::TrainerConfig cfg;
  cfg.ranks = 8;
  cfg.batch_per_rank = 16;
  cfg.epochs = 8;
  cfg.iters_per_epoch = 20;
  cfg.test_size = 512;
  // Charge communication as if the gradient were AlexNet's 250MB and
  // compute as one paper-scale GPU iteration; accuracy remains genuine.
  cfg.paper_scale =
      core::PaperScale{.raw_gradient_bytes = 250e6, .compute_seconds = util::SimSeconds(0.060)};

  core::DistributedTrainer trainer(nn::models::make_mlp(32, 64, 3, 5, rng),
                                   nn::SyntheticDataset({32}, 5, 99), cfg);
  nn::StepLrSchedule lr({{0, 0.03f}, {5, 0.01f}});

  std::puts("training with lossless SGD (fp32 allgather)...");
  const core::TrainResult sgd = trainer.train(
      [](std::size_t) { return std::make_unique<core::NoopCompressor>(); },
      core::FixedTheta(0.0), lr);

  std::puts("training with FFT compression (theta=0.85, 10-bit range float)...");
  const core::TrainResult fft = trainer.train(
      [](std::size_t) {
        return std::make_unique<core::FftCompressor>(
            core::FftCompressorOptions{.theta = 0.85, .quantizer_bits = 10});
      },
      core::FixedTheta(0.85), lr);

  std::puts("training with FFT + error feedback (same wire ratio)...");
  const core::TrainResult fft_ef = trainer.train(
      [](std::size_t) {
        return std::make_unique<core::ErrorFeedbackCompressor>(
            std::make_unique<core::FftCompressor>(
                core::FftCompressorOptions{.theta = 0.85, .quantizer_bits = 10}));
      },
      core::FixedTheta(0.85), lr);

  std::printf("\n%-28s %12s %14s %12s\n", "method", "final acc", "sim wall (s)", "wire ratio");
  auto row = [](const char* label, const core::TrainResult& r, double ratio_value) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1fx", ratio_value);
    std::printf("%-28s %12.4f %14.2f %12s\n", label, r.final_accuracy,
                r.total_sim_time_s.to_double(), ratio);
  };
  row("SGD fp32", sgd, 1.0);
  row("FFT (theta=0.85, 10bit)", fft, fft.epochs.back().mean_ratio);
  row("FFT + error feedback", fft_ef, fft_ef.epochs.back().mean_ratio);
  std::printf("\nspeedup from compression: %.2fx; accuracy delta %+.4f (plain), %+.4f (with\n"
              "error feedback — the residual re-injects what compression drops)\n",
              sgd.total_sim_time_s / fft.total_sim_time_s,
              fft.final_accuracy - sgd.final_accuracy,
              fft_ef.final_accuracy - sgd.final_accuracy);
  return 0;
}
