// Fig 14 + Table 2 reproduction: end-to-end training wall time and final
// accuracy of FFT vs SGD / Top-k / QSGD / TernGrad on an 8-rank cluster.
//
// Accuracy comes from genuine training through each codec; wall time uses
// the paper-scale cost mode (gradients rescaled to AlexNet's 250MB /
// ResNet32's 6MB; compute charged at the paper's per-iteration GPU time;
// compression charged through the Sec 3.3 model). Each regime's trainings
// run concurrently on the global thread pool, each on its own trainer built
// from the regime's seed; the rows print in the fixed order below, so the
// output is the same at every pool size. The shape to reproduce (paper
// Table 2):
//   accuracy: FFT ~= SGD > Top-k > QSGD > TernGrad
//   speedup over SGD: FFT > TernGrad ~ QSGD > Top-k > 1.
#include <cstdio>
#include <functional>
#include <future>
#include <memory>

#include "bench_common.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/parallel/thread_pool.h"

namespace {

using namespace fftgrad;

struct Algo {
  const char* label;
  core::CompressorFactory factory;
};

std::vector<Algo> algorithms() {
  std::vector<Algo> algos;
  algos.push_back({"SGD fp32", [](std::size_t) { return std::make_unique<core::NoopCompressor>(); }});
  algos.push_back({"FFT (t=0.85,10bit)", [](std::size_t r) {
                     auto c = std::make_unique<core::FftCompressor>(
                         core::FftCompressorOptions{.theta = 0.85, .quantizer_bits = 10});
                     (void)r;
                     return c;
                   }});
  algos.push_back({"Top-K (t=0.85)",
                   [](std::size_t) { return std::make_unique<core::TopKCompressor>(0.85); }});
  algos.push_back({"QSGD (3bit)", [](std::size_t r) {
                     return std::make_unique<core::QsgdCompressor>(3, 1000 + r);
                   }});
  algos.push_back({"TernGrad", [](std::size_t r) {
                     return std::make_unique<core::TernGradCompressor>(2000 + r);
                   }});
  // Extended baselines beyond the paper's Table 2: plain half-precision
  // transport and 1-bit SGD (Seide et al.), the earliest quantizer the
  // paper's related-work section discusses.
  algos.push_back(
      {"fp16 (extended)", [](std::size_t) { return std::make_unique<core::HalfCompressor>(); }});
  algos.push_back({"1-bit SGD (extended)",
                   [](std::size_t) { return std::make_unique<core::OneBitCompressor>(); }});
  return algos;
}

void run_workload(const char* title, core::DistributedTrainer (*make_trainer)(),
                  const nn::StepLrSchedule& lr) {
  bench::print_header(std::string("Fig 14 / Table 2: ") + title + " on 8 ranks, FDR56");
  util::TableWriter table({"method", "final_acc", "acc_delta", "sim_wall_s", "speedup_vs_sgd",
                           "mean_ratio", "mean_alpha"});
  table.set_double_format("%.4f");

  // Every training starts from the same seeded weights (train() resets to
  // them), so a trainer per algorithm gives the same results as one trainer
  // reused in turn, and the trainings are independent of each other.
  const std::vector<Algo> algos = algorithms();
  std::vector<core::TrainResult> results(algos.size());
  std::vector<std::future<void>> runs;
  for (std::size_t i = 0; i < algos.size(); ++i) {
    runs.push_back(parallel::ThreadPool::global().submit([&, i] {
      core::DistributedTrainer trainer = make_trainer();
      results[i] = trainer.train(algos[i].factory, core::FixedTheta(0.85), lr);
    }));
  }
  for (std::future<void>& run : runs) run.wait();
  for (std::future<void>& run : runs) run.get();

  // Mean accuracy over the last 3 epochs smooths evaluation noise.
  const auto tail_accuracy = [](const core::TrainResult& result) {
    double acc = 0.0;
    const std::size_t tail = std::min<std::size_t>(3, result.epochs.size());
    for (std::size_t e = result.epochs.size() - tail; e < result.epochs.size(); ++e) {
      acc += result.epochs[e].test_accuracy / static_cast<double>(tail);
    }
    return acc;
  };
  const core::TrainResult& sgd = results.front();  // the first algorithm
  const double sgd_acc = tail_accuracy(sgd);
  for (std::size_t i = 0; i < algos.size(); ++i) {
    const core::TrainResult& result = results[i];
    const double acc = tail_accuracy(result);
    const core::EpochRecord& last = result.epochs.back();
    table.add_row({std::string(algos[i].label), acc, acc - sgd_acc,
                   result.total_sim_time_s.to_double(),
                   sgd.total_sim_time_s / result.total_sim_time_s, last.mean_ratio,
                   last.mean_alpha});
  }
  bench::print_table(table);
}

// "AlexNet" regime: parameter-heavy model, 250MB paper-scale gradient,
// per-iteration compute pinned by the paper's AlexNet communication share.
core::DistributedTrainer alexnet_trainer() {
  util::Rng rng(4);
  core::TrainerConfig cfg;
  cfg.ranks = 8;
  cfg.batch_per_rank = 12;
  cfg.epochs = 12;
  cfg.iters_per_epoch = 20;
  cfg.test_size = 640;
  // compute: paper reports AlexNet communication at 64.17% of an
  // iteration on FDR; with 8 ranks the 250MB allgather costs ~250ms,
  // which pins fwd+bwd at ~140ms.
  cfg.compute = perfmodel::ComputeModel{.compute_s = util::SimSeconds(0.140)};
  cfg.raw_gradient_bytes = util::Bytes(250e6);
  return core::DistributedTrainer(nn::models::make_alexnet_mini(8, 5, rng),
                                  nn::SyntheticDataset({3, 8, 8}, 5, 30), cfg);
}

// "ResNet32" regime: small gradients (6MB), compute-light layers.
core::DistributedTrainer resnet_trainer() {
  util::Rng rng(5);
  core::TrainerConfig cfg;
  cfg.ranks = 8;
  cfg.batch_per_rank = 16;
  cfg.epochs = 24;
  cfg.iters_per_epoch = 20;
  cfg.test_size = 640;
  // compute: paper reports ResNet32 communication at 43.96% of an
  // iteration; the 6MB allgather costs ~6ms on 8 FDR ranks -> ~8ms compute.
  cfg.compute = perfmodel::ComputeModel{.compute_s = util::SimSeconds(0.008)};
  cfg.raw_gradient_bytes = util::Bytes(6e6);
  return core::DistributedTrainer(nn::models::make_resnet_mini(8, 2, 5, rng),
                                  nn::SyntheticDataset({3, 8, 8}, 5, 40), cfg);
}

}  // namespace

int main() {
  run_workload("AlexNet-regime (250MB gradients)", alexnet_trainer,
               nn::StepLrSchedule({{0, 0.02f}, {9, 0.002f}}));
  run_workload("ResNet32-regime (6MB gradients)", resnet_trainer,
               nn::StepLrSchedule({{0, 0.02f}, {18, 0.002f}}));

  std::puts("\npaper Table 2: FFT 2.26x/1.33x speedup with ~SGD accuracy; Top-K 1.53x/1.12x\n"
            "(-1.5/-1.8% acc); QSGD 1.73x/1.21x (-3.0/-3.5%); TernGrad 1.81x/1.24x (-3.7/-5.2%).\n"
            "The ordering (FFT best accuracy at highest speedup) is the shape to check above.");
  return 0;
}
