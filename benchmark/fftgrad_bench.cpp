// fftgrad_bench: the repository benchmark's program. One workload per
// process, one closed-loop client (the next step starts only when the
// previous one has returned), the timed steps' inputs generated from
// --seed and the quality metrics' from the fixed kReferenceSeed.
//
//   fftgrad_bench --workload codec-fft --seed 1 --seconds 20 --trace 0
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
// measured with tracing off. --trace 1 spends half of --seconds untraced
// and half with the span tracer and metrics registry on, and reports the
// per-layer metrics of the traced half plus the tracing overhead. Metric
// names, units and bounds are declared in BENCHMARK.json; what each one
// means is in benchmark/README.md.
//
// Optional: --steps K caps every timed pass at K steps and sets up once
// (the smoke run). --summary FILE writes what the end-to-end metrics are
// computed from, and
//
//   fftgrad_bench --pool FILE...
//
// pools several such files (the rounds of run.sh's full pass) into one
// result line, so that every metric is defined here and only here.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "fftgrad/comm/network_model.h"
#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/registry.h"
#include "fftgrad/nn/dataset.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/nn/optimizer.h"
#include "fftgrad/telemetry/telemetry.h"
#include "fftgrad/util/stats.h"

namespace {

using namespace fftgrad;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Workloads. All four share FDR56, 4 ranks and batch 16 per rank; the
// reasons each exists are in README.md.

constexpr std::size_t kRanks = 4;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kPoolSize = 8;        // gradients in a codec workload's pool
constexpr std::size_t kCaptureEvery = 5;    // SGD steps between pool captures
constexpr std::size_t kSetups = 3;          // set-ups per run; setup_s is their median
constexpr std::size_t kWarmupIterations = 3;
constexpr std::size_t kCallIterations = 40;  // iterations per timed cluster_train call
constexpr std::size_t kTestSamples = 512;  // held-out samples behind final_loss
// recon_alpha and final_loss are measured on the inputs of this seed,
// whatever --seed is. On --seed's own inputs they spread 1-8% across seeds,
// which would hide a real 1% loss of quality; on fixed inputs they repeat
// bit for bit, so their bound can be 1%. The timed steps and the
// correctness checks use --seed's inputs.
constexpr std::uint64_t kReferenceSeed = 1;

enum class Model { kMlp, kResNet };

struct Workload {
  const char* name;
  bool training;
  const char* codec;  // make_compressor spec
  Model model;
  float learning_rate;
};

constexpr Workload kWorkloads[] = {
    {"codec-fft", false, "fft", Model::kMlp, 0.01f},
    {"codec-topk", false, "topk", Model::kMlp, 0.01f},
    {"train-resnet-fft", true, "fft", Model::kResNet, 0.02f},
    {"train-mlp-chunked", true, "chunked:65536[fft]", Model::kMlp, 0.01f},
};

nn::Network make_model(Model model, std::uint64_t seed) {
  util::Rng rng(seed);
  return model == Model::kResNet ? nn::models::make_resnet_mini(16, 2, 5, rng)
                                 : nn::models::make_mlp(128, 512, 3, 10, rng);
}

nn::SyntheticDataset make_dataset(Model model, std::uint64_t seed) {
  return model == Model::kResNet ? nn::SyntheticDataset({3, 16, 16}, 5, seed)
                                 : nn::SyntheticDataset({128}, 10, seed);
}

/// Mean loss of `net` on the dataset's held-out split.
double held_out_loss(nn::Network& net, const nn::SyntheticDataset& data) {
  const nn::Batch test = data.test_set(kTestSamples);
  nn::SoftmaxCrossEntropy criterion;
  return criterion.forward(net.forward(test.inputs), test.labels);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Linear interpolation between order statistics, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// ---------------------------------------------------------------------------
// What one timed pass measured.

struct Pass {
  std::vector<double> step_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  // Codec-call totals from the benchmark's own timers.
  std::size_t units = 0;  // codec: steps; training: ranks x iterations
  double compress_s = 0.0;
  double decompress_s = 0.0;
  std::size_t compress_calls = 0;
  std::size_t decompress_calls = 0;
  double packet_bytes = 0.0;
  std::size_t packet_elements = 0;  // gradient floats one packet carries
  double step_gradient_bytes = 0.0;  // gradient bytes one step compresses, all ranks
  double peak_rss_mib = 0.0;  // at the end of the timed steps
  // Training only: iterations per cluster_train call, and the first call's replica.
  std::size_t call_iterations = 0;
  std::vector<float> trained_params;
};

/// The codec's output quality, on the reference inputs.
struct Quality {
  double recon_alpha = std::nan("");  // mean ||g - g^|| / ||g|| over kPoolSize gradients
  double final_loss = std::nan("");   // held-out loss
  std::vector<std::string> errors;
};

/// Mean reconstruction error of a fresh `codec` instance over `gradients`.
/// A fresh instance calibrates its frozen quantizer on these inputs, not on
/// whatever the timed codec saw first.
void score_codec(const char* codec_spec, const std::vector<std::vector<float>>& gradients,
                 Quality& quality) {
  const std::unique_ptr<core::GradientCompressor> codec = core::make_compressor(codec_spec);
  std::vector<float> out(gradients.front().size());
  double sum = 0.0;
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    codec->decompress(codec->compress(gradients[i]), out);
    const double alpha = util::relative_error_alpha(gradients[i], out);
    if (!std::isfinite(alpha) || alpha > 1.0) {
      quality.errors.push_back("reference gradient " + std::to_string(i) + ": alpha " +
                               std::to_string(alpha));
    }
    sum += alpha;
  }
  quality.recon_alpha = sum / static_cast<double>(gradients.size());
}

struct Deadline {
  Clock::time_point end;
  std::size_t max_steps;  // 0: no cap
};

// ---------------------------------------------------------------------------
// Codec workloads: compress + decompress the next gradient of a pool of
// real MLP-512 gradients.

struct GradientPool {
  std::vector<std::vector<float>> gradients;
  double final_loss = 0.0;  // held-out loss of the single-worker run that made the pool
};

GradientPool make_pool(const Workload& w, std::uint64_t seed) {
  const nn::SyntheticDataset data = make_dataset(w.model, seed);
  nn::Network net = make_model(w.model, seed);
  nn::SgdOptimizer optimizer(0.9f);
  nn::SoftmaxCrossEntropy criterion;
  util::Rng batch_rng(seed * 7919);
  GradientPool pool;
  for (std::size_t step = 1; pool.gradients.size() < kPoolSize; ++step) {
    const nn::Batch batch = data.sample(kBatch, batch_rng);
    net.zero_grad();
    criterion.forward(net.forward(batch.inputs), batch.labels);
    net.backward(criterion.backward());
    if (step % kCaptureEvery == 0) {
      pool.gradients.emplace_back(net.param_count());
      net.copy_gradients(pool.gradients.back());
    }
    optimizer.step(net, w.learning_rate);
  }
  pool.final_loss = held_out_loss(net, data);
  return pool;
}

struct CodecSetup {
  GradientPool pool;
  std::unique_ptr<core::GradientCompressor> codec;
};

CodecSetup setup_codec(const Workload& w, std::uint64_t seed) {
  CodecSetup s{make_pool(w, seed), core::make_compressor(w.codec)};
  // Build the FFT plans and calibrate the frozen quantizer before timing.
  std::vector<float> out(s.pool.gradients.front().size());
  s.codec->decompress(s.codec->compress(s.pool.gradients.front()), out);
  return s;
}

/// A codec workload's quality: the reference pool's reconstruction error,
/// and the held-out loss of the single-worker run that made the pool (the
/// plain baseline of the task the training workloads solve).
Quality evaluate_codec(const Workload& w) {
  const GradientPool pool = make_pool(w, kReferenceSeed);
  Quality quality;
  quality.final_loss = pool.final_loss;
  score_codec(w.codec, pool.gradients, quality);
  return quality;
}

Pass run_codec(CodecSetup& s, const Deadline& deadline) {
  Pass pass;
  const std::size_t n = s.pool.gradients.front().size();
  pass.packet_elements = n;
  pass.step_gradient_bytes = static_cast<double>(n * sizeof(float));
  std::vector<float> out(n);
  // The codec is deterministic, so each pool gradient must reconstruct to
  // the same error every time it comes round.
  std::vector<double> alpha(kPoolSize, std::nan(""));
  for (std::size_t i = 0; Clock::now() < deadline.end &&
                          (deadline.max_steps == 0 || i < deadline.max_steps);
       ++i) {
    const std::vector<float>& gradient = s.pool.gradients[i % kPoolSize];
    ++pass.attempted;
    ++pass.units;
    const Clock::time_point t0 = Clock::now();
    try {
      const core::Packet packet = s.codec->compress(gradient);
      const Clock::time_point t1 = Clock::now();
      s.codec->decompress(packet, out);
      const Clock::time_point t2 = Clock::now();
      pass.step_ms.push_back(seconds_between(t0, t2) * 1e3);
      pass.compress_s += seconds_between(t0, t1);
      pass.decompress_s += seconds_between(t1, t2);
      ++pass.compress_calls;
      ++pass.decompress_calls;
      pass.packet_bytes += static_cast<double>(packet.wire_bytes());
    } catch (const std::exception& error) {
      ++pass.failed;
      pass.errors.push_back(std::string("codec threw: ") + error.what());
      continue;
    }
    const double a = util::relative_error_alpha(gradient, out);
    double& seen = alpha[i % kPoolSize];
    if (!std::isfinite(a) || a > 1.0 || (!std::isnan(seen) && a != seen)) {
      ++pass.failed;
      pass.errors.push_back("step " + std::to_string(i) + ": alpha " + std::to_string(a) +
                            (std::isnan(seen) ? "" : " differs from " + std::to_string(seen)));
    }
    seen = a;
  }
  pass.peak_rss_mib = peak_rss_mib();
  return pass;
}

// ---------------------------------------------------------------------------
// Training workloads: repeated fixed-length cluster_train calls from the
// same initial state. Every call must end bit-identical to the first.

/// Codec calls seen by one rank. Written only by that rank's thread and
/// read after cluster_train has joined the rank threads, so no lock.
struct CodecLog {
  std::vector<Clock::time_point> compress_entries;
  double compress_s = 0.0;
  double decompress_s = 0.0;
  std::size_t decompress_calls = 0;
  double packet_bytes = 0.0;
};

/// Forwarding decorator that times the codec from the benchmark's side. It
/// hides the codec's dynamic type, so cluster_train's error-feedback hooks
/// would not find an EF codec behind it: no training workload may use an
/// "ef[...]" spec.
class TimedCodec final : public core::GradientCompressor {
 public:
  TimedCodec(std::unique_ptr<core::GradientCompressor> inner, CodecLog& log)
      : inner_(std::move(inner)), log_(log) {}

  std::string name() const override { return inner_->name(); }

  core::Packet compress(std::span<const float> gradient) override {
    const Clock::time_point t0 = Clock::now();
    log_.compress_entries.push_back(t0);
    core::Packet packet = inner_->compress(gradient);
    log_.compress_s += seconds_between(t0, Clock::now());
    log_.packet_bytes += static_cast<double>(packet.wire_bytes());
    return packet;
  }

  void decompress(const core::Packet& packet, std::span<float> out) override {
    const Clock::time_point t0 = Clock::now();
    inner_->decompress(packet, out);
    log_.decompress_s += seconds_between(t0, Clock::now());
    ++log_.decompress_calls;
  }

  void set_theta(double theta) override { inner_->set_theta(theta); }
  double theta() const override { return inner_->theta(); }
  double modeled_seconds_per_byte(const perfmodel::PrimitiveThroughputs& t) const override {
    return inner_->modeled_seconds_per_byte(t);
  }

 private:
  std::unique_ptr<core::GradientCompressor> inner_;
  CodecLog& log_;
};

struct TrainSetup {
  const Workload* workload;
  std::uint64_t seed;
  nn::SyntheticDataset data;
  comm::SimCluster cluster;
  core::ClusterTrainConfig config;
  std::vector<CodecLog> logs;
};

core::ClusterTrainResult train(TrainSetup& s, std::size_t iterations) {
  for (CodecLog& log : s.logs) {
    log = CodecLog{};
    log.compress_entries.reserve(iterations);
  }
  core::ClusterTrainConfig config = s.config;
  config.iterations = iterations;
  const Workload& w = *s.workload;
  const std::uint64_t seed = s.seed;
  return core::cluster_train(
      s.cluster, config, [&w, seed] { return make_model(w.model, seed); },
      [&s](std::size_t rank) -> std::unique_ptr<core::GradientCompressor> {
        return std::make_unique<TimedCodec>(core::make_compressor(s.workload->codec),
                                            s.logs[rank]);
      },
      s.data);
}

std::unique_ptr<TrainSetup> make_training(const Workload& w, std::uint64_t seed) {
  core::ClusterTrainConfig config;
  config.ranks = kRanks;
  config.batch_per_rank = kBatch;
  config.learning_rate = w.learning_rate;
  config.seed = seed;
  return std::unique_ptr<TrainSetup>(
      new TrainSetup{&w, seed, make_dataset(w.model, seed),
                     comm::SimCluster(comm::NetworkModel::infiniband_fdr56()), config,
                     std::vector<CodecLog>(kRanks)});
}

std::unique_ptr<TrainSetup> setup_training(const Workload& w, std::uint64_t seed) {
  std::unique_ptr<TrainSetup> s = make_training(w, seed);
  (void)train(*s, kWarmupIterations);
  return s;
}

/// A training workload's quality: the held-out loss of the replica that one
/// call as long as the timed ones trains on the reference inputs, and the
/// codec's mean reconstruction error over kPoolSize fresh gradients of it.
/// `trained` is the first timed call's replica, which is that replica when
/// the run's seed is the reference seed.
Quality evaluate_training(const Workload& w, std::uint64_t seed, std::size_t call_iterations,
                          std::vector<float> trained) {
  const std::unique_ptr<TrainSetup> reference = make_training(w, kReferenceSeed);
  if (seed != kReferenceSeed) trained = train(*reference, call_iterations).final_params;
  nn::Network net = make_model(w.model, kReferenceSeed);
  net.set_params(trained);
  Quality quality;
  quality.final_loss = held_out_loss(net, reference->data);
  nn::SoftmaxCrossEntropy criterion;
  util::Rng rng(kReferenceSeed * 7919 + kRanks);  // a stream no rank trained on
  std::vector<std::vector<float>> gradients(kPoolSize, std::vector<float>(net.param_count()));
  for (std::vector<float>& gradient : gradients) {
    const nn::Batch batch = reference->data.sample(kBatch, rng);
    net.zero_grad();
    criterion.forward(net.forward(batch.inputs), batch.labels);
    net.backward(criterion.backward());
    net.copy_gradients(gradient);
  }
  score_codec(w.codec, gradients, quality);
  return quality;
}

Pass run_training(TrainSetup& s, const Deadline& deadline) {
  Pass pass;
  // A call's first interval holds the per-call plan and buffer set-up, so
  // the steps are the intervals between rank 0's later compress entries.
  pass.call_iterations =
      deadline.max_steps == 0 ? kCallIterations : std::max<std::size_t>(deadline.max_steps, 3);
  const std::size_t iterations = pass.call_iterations;
  std::optional<core::ClusterTrainResult> first;
  for (;;) {
    const Clock::time_point call_start = Clock::now();
    core::ClusterTrainResult result = train(s, iterations);
    const Clock::time_point call_end = Clock::now();

    pass.attempted += iterations;
    pass.units += iterations * kRanks;
    std::size_t failed = result.skipped_contributions;
    for (double loss : result.mean_loss_trace) failed += std::isfinite(loss) ? 0 : 1;
    if (!result.replicas_identical || result.crashed_ranks != 0) {
      failed = iterations;
      pass.errors.push_back("replicas diverged or a rank crashed");
    }
    pass.failed += std::min(failed, iterations);
    if (!first) {
      first = std::move(result);
    } else if (result.final_params != first->final_params ||
               result.mean_loss_trace != first->mean_loss_trace) {
      pass.errors.push_back("a repeated training call did not reproduce the first");
    }

    const std::vector<Clock::time_point>& entries = s.logs.front().compress_entries;
    for (std::size_t i = 2; i < entries.size(); ++i) {
      pass.step_ms.push_back(seconds_between(entries[i - 1], entries[i]) * 1e3);
    }
    for (const CodecLog& log : s.logs) {
      pass.compress_s += log.compress_s;
      pass.decompress_s += log.decompress_s;
      pass.compress_calls += log.compress_entries.size();
      pass.decompress_calls += log.decompress_calls;
      pass.packet_bytes += log.packet_bytes;
    }

    const Clock::time_point now = Clock::now();
    if (deadline.max_steps != 0 || now + (call_end - call_start) > deadline.end) break;
  }
  pass.peak_rss_mib = peak_rss_mib();
  pass.packet_elements = first->final_params.size();
  pass.step_gradient_bytes = static_cast<double>(pass.packet_elements * sizeof(float) * kRanks);
  pass.trained_params = std::move(first->final_params);
  return pass;
}

// ---------------------------------------------------------------------------
// One workload: set up kSetups times, then run timed passes on the last.

class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed, std::size_t setups) : w_(w), seed_(seed) {
    for (std::size_t i = 0; i < setups; ++i) {
      const Clock::time_point t0 = Clock::now();
      if (w.training) {
        train_.reset();
        train_ = setup_training(w, seed);
      } else {
        codec_.reset();
        codec_ = std::make_unique<CodecSetup>(setup_codec(w, seed));
      }
      setup_s_.push_back(seconds_between(t0, Clock::now()));
    }
  }

  Pass run(const Deadline& deadline) {
    return w_.training ? run_training(*train_, deadline) : run_codec(*codec_, deadline);
  }

  /// Untimed: the codec's quality on the reference inputs.
  Quality evaluate(const Pass& pass) const {
    return w_.training ? evaluate_training(w_, seed_, pass.call_iterations, pass.trained_params)
                       : evaluate_codec(w_);
  }

  const std::vector<double>& setup_s() const { return setup_s_; }

 private:
  const Workload& w_;
  std::uint64_t seed_;
  std::unique_ptr<TrainSetup> train_;
  std::unique_ptr<CodecSetup> codec_;
  std::vector<double> setup_s_;
};

// ---------------------------------------------------------------------------
// End-to-end metrics (untraced pass).

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// What the end-to-end metrics are computed from: one run's, or several
/// runs' pooled.
struct Summary {
  std::vector<double> step_ms;
  std::vector<double> setup_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double step_gradient_bytes = 0.0;
  double packet_raw_bytes = 0.0;  // gradient bytes over all packets
  double packet_bytes = 0.0;      // wire bytes over all packets
  double peak_rss_mib = 0.0;
  double recon_alpha = 0.0;
  double final_loss = 0.0;
};

Summary summarize(const Pass& pass, const std::vector<double>& setup_s, const Quality& quality) {
  return {pass.step_ms,
          setup_s,
          pass.attempted,
          pass.failed,
          pass.step_gradient_bytes,
          static_cast<double>(pass.packet_elements * sizeof(float) * pass.compress_calls),
          pass.packet_bytes,
          pass.peak_rss_mib,
          quality.recon_alpha,
          quality.final_loss};
}

std::vector<Metric> end_to_end(const Summary& s) {
  const double p50 = quantile(s.step_ms, 0.5);
  return {
      {"step_ms.p50", p50, "ms"},
      {"grad_mb_per_s", s.step_gradient_bytes / 1e6 / (p50 / 1e3), "MB/s"},
      {"setup_s", quantile(s.setup_s, 0.5), "s"},
      {"peak_rss_mb", s.peak_rss_mib, "MiB"},
      {"wire_ratio", s.packet_raw_bytes / s.packet_bytes, "ratio"},
      {"recon_alpha", s.recon_alpha, "ratio"},
      {"final_loss", s.final_loss, "nats"},
  };
}

// A summary file holds one field per line: its name, then its numbers.

void write_summary(const std::string& path, const Summary& s) {
  std::ofstream file(path);
  file.precision(17);
  const auto line = [&](const char* name, std::span<const double> values) {
    file << name;
    for (double v : values) file << ' ' << v;
    file << '\n';
  };
  line("step_ms", s.step_ms);
  line("setup_s", s.setup_s);
  const std::pair<const char*, double> scalars[] = {
      {"attempted", static_cast<double>(s.attempted)},
      {"failed", static_cast<double>(s.failed)},
      {"step_gradient_bytes", s.step_gradient_bytes},
      {"packet_raw_bytes", s.packet_raw_bytes},
      {"packet_bytes", s.packet_bytes},
      {"peak_rss_mib", s.peak_rss_mib},
      {"recon_alpha", s.recon_alpha},
      {"final_loss", s.final_loss}};
  for (const auto& [name, value] : scalars) line(name, std::span<const double>(&value, 1));
  if (!file.flush()) throw std::runtime_error("cannot write " + path);
}

Summary read_summary(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::map<std::string, std::vector<double>> fields;
  for (std::string text; std::getline(file, text);) {
    std::istringstream line(text);
    std::string name;
    line >> name;
    std::vector<double>& values = fields[name];
    for (double v; line >> v;) values.push_back(v);
  }
  const auto scalar = [&](const char* name) {
    const auto it = fields.find(name);
    if (it == fields.end() || it->second.size() != 1) {
      throw std::runtime_error(path + ": no single value for " + name);
    }
    return it->second.front();
  };
  return {fields["step_ms"],
          fields["setup_s"],
          static_cast<std::size_t>(scalar("attempted")),
          static_cast<std::size_t>(scalar("failed")),
          scalar("step_gradient_bytes"),
          scalar("packet_raw_bytes"),
          scalar("packet_bytes"),
          scalar("peak_rss_mib"),
          scalar("recon_alpha"),
          scalar("final_loss")};
}

/// Pools several runs of one workload and seed: their steps and set-ups
/// together, their packets together, the highest RSS. The codec's output
/// is deterministic, so the runs must agree exactly on the quality metrics
/// and the wire ratio; a disagreement is added to `errors`.
Summary pool(const std::vector<Summary>& runs, std::vector<std::string>& errors) {
  Summary pooled = runs.front();
  pooled.step_ms.clear();
  pooled.setup_s.clear();
  pooled.attempted = pooled.failed = 0;
  pooled.packet_raw_bytes = pooled.packet_bytes = 0.0;
  for (const Summary& run : runs) {
    pooled.step_ms.insert(pooled.step_ms.end(), run.step_ms.begin(), run.step_ms.end());
    pooled.setup_s.insert(pooled.setup_s.end(), run.setup_s.begin(), run.setup_s.end());
    pooled.attempted += run.attempted;
    pooled.failed += run.failed;
    pooled.packet_raw_bytes += run.packet_raw_bytes;
    pooled.packet_bytes += run.packet_bytes;
    pooled.peak_rss_mib = std::max(pooled.peak_rss_mib, run.peak_rss_mib);
    const Summary& first = runs.front();
    if (run.step_gradient_bytes != first.step_gradient_bytes ||
        run.recon_alpha != first.recon_alpha || run.final_loss != first.final_loss ||
        run.packet_raw_bytes / run.packet_bytes != first.packet_raw_bytes / first.packet_bytes) {
      errors.push_back("the runs differ in a deterministic metric");
    }
  }
  return pooled;
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced pass), from the spans src/ already emits.

struct SpanTotals {
  std::map<std::string, double> self_ms;  // by span name
  std::map<std::string, double> wall_ms;  // by span name, whole duration
  double codec_self_ms = 0.0;             // every "codec"-category span
  double barrier_wait_ms = 0.0;
  double rank0_window_ms = 0.0;   // rank 0's training steps
  double rank0_covered_ms = 0.0;  // nn + core + comm spans inside them
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

SpanTotals analyze_spans(std::vector<telemetry::SpanRecord> spans, std::uint64_t since_ns) {
  using telemetry::SpanRecord;
  std::erase_if(spans, [&](const SpanRecord& r) {
    return r.name == nullptr || r.wall_end_ns == 0 || r.wall_start_ns < since_ns;
  });
  SpanTotals totals;

  // Self time: walk each thread's spans in start order, keeping the stack
  // of open ancestors; a span's duration is charged to its direct parent.
  std::sort(spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.wall_start_ns != b.wall_start_ns) return a.wall_start_ns < b.wall_start_ns;
    return a.wall_end_ns > b.wall_end_ns;
  });
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && (spans[open.back()].thread != spans[i].thread ||
                             spans[open.back()].wall_end_ns <= spans[i].wall_start_ns)) {
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += spans[i].wall_end_ns - spans[i].wall_start_ns;
    open.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t duration = spans[i].wall_end_ns - spans[i].wall_start_ns;
    const double self = ms(duration - std::min(duration, child_ns[i]));
    totals.self_ms[spans[i].name] += self;
    totals.wall_ms[spans[i].name] += ms(duration);
    if (std::string_view(spans[i].category) == "codec") totals.codec_self_ms += self;
  }

  // Barrier wait: within one allgather every rank waits for the last one
  // to arrive, so a rank waits (latest entry - its own entry).
  std::map<std::pair<std::uint32_t, std::int64_t>, std::vector<std::uint64_t>> allgather_entries;
  // Rank 0's steps run from one trainer compress entry to the next.
  std::map<std::uint32_t, std::vector<std::uint64_t>> rank0_compress_entries;
  for (const SpanRecord& r : spans) {
    const std::string_view name(r.name);
    if (name == "allgather") {
      allgather_entries[{r.sim_session, r.iteration}].push_back(r.wall_start_ns);
    }
    if (r.rank == 0 && name == "compress") {
      rank0_compress_entries[r.sim_session].push_back(r.wall_start_ns);
    }
  }
  for (const auto& [key, entries] : allgather_entries) {
    const std::uint64_t last = *std::max_element(entries.begin(), entries.end());
    for (std::uint64_t entry : entries) totals.barrier_wait_ms += ms(last - entry);
  }
  constexpr std::string_view kStepSpans[] = {"forward",   "backward",   "compress",
                                             "allgather", "decompress", "apply"};
  for (auto& [session, entries] : rank0_compress_entries) {
    std::sort(entries.begin(), entries.end());
    if (entries.size() < 3) continue;
    // Skip the first step, as the timed pass does.
    const std::uint64_t from = entries[1];
    const std::uint64_t to = entries.back();
    totals.rank0_window_ms += ms(to - from);
    for (const SpanRecord& r : spans) {
      if (r.rank != 0 || r.sim_session != session) continue;
      if (std::find(std::begin(kStepSpans), std::end(kStepSpans), std::string_view(r.name)) ==
          std::end(kStepSpans)) {
        continue;
      }
      const std::uint64_t start = std::max(r.wall_start_ns, from);
      const std::uint64_t end = std::min(r.wall_end_ns, to);
      if (end > start) totals.rank0_covered_ms += ms(end - start);
    }
  }
  return totals;
}

/// Registry counters the per-layer metrics read, as deltas over a pass.
struct Counters {
  double allgather_calls = 0.0;
  double bytes_sent = 0.0;
  double pool_tasks = 0.0;

  static Counters now() {
    telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
    return {registry.counter("comm.allgather.calls").value(),
            registry.counter("comm.bytes_sent").value(), registry.counter("pool.tasks").value()};
  }
  Counters since(const Counters& before) const {
    return {allgather_calls - before.allgather_calls, bytes_sent - before.bytes_sent,
            pool_tasks - before.pool_tasks};
  }
};

std::vector<Metric> per_layer(const Pass& traced, const SpanTotals& spans, const Counters& counters,
                              double trace_overhead_pct) {
  // Codec workloads: per step. Training: per rank per iteration.
  const auto units = static_cast<double>(traced.units);
  const auto self = [&](const char* name) {
    const auto it = spans.self_ms.find(name);
    return it == spans.self_ms.end() ? 0.0 : it->second / units;
  };
  const auto wall = [&](const char* name) {
    const auto it = spans.wall_ms.find(name);
    return it == spans.wall_ms.end() ? 0.0 : it->second / units;
  };
  const double compress_ms = traced.compress_s * 1e3 / units;
  // The trainer's compress span minus the codec call inside it: framing + CRC.
  const double frame_ms = spans.wall_ms.contains("compress") ? wall("compress") - compress_ms : 0.0;
  return {
      {"fft.rfft_ms", self("fft.rfft"), "ms"},
      {"fft.irfft_ms", self("fft.irfft"), "ms"},
      {"quant.fp16_ms", self("fft.fp16"), "ms"},
      {"quant.quantize_ms", self("fft.quantize"), "ms"},
      {"quant.encode_ms", self("fft.encode"), "ms"},
      {"quant.dequantize_ms", self("fft.dequantize"), "ms"},
      {"sparse.lowpass_ms", self("fft.lowpass"), "ms"},
      {"sparse.pack_ms", self("fft.pack"), "ms"},
      {"sparse.unpack_ms", self("fft.unpack"), "ms"},
      {"core.topk_compress_ms", self("topk.compress"), "ms"},
      {"core.topk_decompress_ms", self("topk.decompress"), "ms"},
      {"core.compress_ms", compress_ms, "ms"},
      {"core.decompress_ms", traced.decompress_s * 1e3 / units, "ms"},
      {"core.decompress_calls_per_step", static_cast<double>(traced.decompress_calls) / units,
       "count"},
      {"core.packet_bytes", traced.packet_bytes / static_cast<double>(traced.compress_calls),
       "bytes"},
      {"core.frame_ms", frame_ms, "ms"},
      {"nn.forward_ms", self("forward"), "ms"},
      {"nn.backward_ms", self("backward"), "ms"},
      {"nn.apply_ms", self("apply"), "ms"},
      {"comm.allgather_ms", wall("allgather"), "ms"},
      {"comm.barrier_wait_ms", spans.barrier_wait_ms / units, "ms"},
      {"comm.allgather_calls_per_step", counters.allgather_calls / units, "count"},
      {"comm.bytes_per_step", counters.bytes_sent / units, "bytes"},
      {"parallel.pool_tasks_per_step", counters.pool_tasks / units, "count"},
      {"telemetry.trace_overhead_pct", trace_overhead_pct, "%"},
  };
}

/// The traced pass must account for the time the benchmark's own timers
/// saw, or the per-layer numbers do not explain the end-to-end ones.
/// Returns a one-line report and whether the check passed.
std::pair<std::string, bool> check_attribution(const Workload& w, const Pass& traced,
                                               const SpanTotals& spans) {
  char line[160];
  if (!w.training) {
    const double share =
        spans.codec_self_ms / ((traced.compress_s + traced.decompress_s) * 1e3);
    std::snprintf(line, sizeof(line),
                  "codec stage self times sum to %.1f%% of compress + decompress (need 90-110%%)",
                  share * 100.0);
    return {line, std::fabs(share - 1.0) <= 0.10};
  }
  const double coverage = spans.rank0_covered_ms / spans.rank0_window_ms;
  std::snprintf(line, sizeof(line),
                "nn + core + comm spans cover %.1f%% of rank 0's steps (need >= 90%%)",
                coverage * 100.0);
  return {line, coverage >= 0.90};
}

// ---------------------------------------------------------------------------
// Output.

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Prints the metrics as a table and then, as the last line, the result.
void report(const std::string& heading, std::size_t attempted, std::size_t failed,
            const std::vector<Metric>& metrics, std::vector<std::string> errors,
            const std::string& attribution) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) errors.push_back(m.name + " is not finite");
  }
  std::printf("%s: %zu steps, %zu failed\n", heading.c_str(), attempted, failed);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!attribution.empty()) std::printf("  attribution: %s\n", attribution.c_str());
  for (const std::string& error : errors) std::printf("  check failed: %s\n", error.c_str());
  const bool correct = errors.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, json_metrics(metrics).c_str());
  std::fflush(stdout);
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = -1.0;  // required
  bool trace = false;
  std::size_t steps = 0;
  std::string summary;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fftgrad_bench: %s\nusage: fftgrad_bench --workload NAME --seconds S [--seed N] "
               "[--trace 0|1] [--steps K] [--summary FILE]\n"
               "       fftgrad_bench --pool FILE...\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fputc('\n', stderr);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::string_view(w.name) == value) args.workload = &w;
      }
      if (args.workload == nullptr) usage("unknown workload");
      continue;
    }
    if (flag == "--summary") {
      args.summary = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || !(number >= 0.0)) usage("bad number");
    if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      args.seconds = number;
    } else if (flag == "--trace") {
      args.trace = number != 0.0;
    } else if (flag == "--steps") {
      args.steps = static_cast<std::size_t>(number);
    } else {
      usage("unknown flag");
    }
  }
  if (args.workload == nullptr) usage("--workload is required");
  if (args.seconds < 0.0) usage("--seconds is required");
  return args;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  const auto deadline = [&](double seconds) {
    return Deadline{Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds)),
                    args.steps};
  };
  Runner runner(w, args.seed, args.steps == 0 ? kSetups : 1);

  Pass reported;
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::string attribution;
  if (!args.trace) {
    reported = runner.run(deadline(args.seconds));
    const Quality quality = runner.evaluate(reported);
    errors = quality.errors;
    const Summary summary = summarize(reported, runner.setup_s(), quality);
    metrics = end_to_end(summary);
    if (!args.summary.empty()) write_summary(args.summary, summary);
  } else {
    const Pass untraced = runner.run(deadline(args.seconds / 2.0));
    attempted += untraced.attempted;
    failed += untraced.failed;
    errors = untraced.errors;

    telemetry::Tracer& tracer = telemetry::Tracer::global();
    telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
    const bool tracer_was_on = tracer.enabled();
    const bool registry_was_on = registry.enabled();
    const Counters before = Counters::now();
    const std::uint64_t since_ns = tracer.wall_now_ns();
    tracer.set_enabled(true);
    registry.set_enabled(true);
    reported = runner.run(deadline(args.seconds / 2.0));
    tracer.set_enabled(tracer_was_on);
    registry.set_enabled(registry_was_on);

    const SpanTotals spans = analyze_spans(tracer.snapshot(), since_ns);
    const double overhead_pct =
        (quantile(reported.step_ms, 0.5) / quantile(untraced.step_ms, 0.5) - 1.0) * 100.0;
    metrics = per_layer(reported, spans, Counters::now().since(before), overhead_pct);
    bool attributed = false;
    std::tie(attribution, attributed) = check_attribution(w, reported, spans);
    if (!attributed) errors.push_back(attribution);
  }
  attempted += reported.attempted;
  failed += reported.failed;
  errors.insert(errors.end(), reported.errors.begin(), reported.errors.end());
  report(std::string("workload ") + w.name + ", seed " + std::to_string(args.seed) +
             (args.trace ? ", traced pass" : ", untraced pass"),
         attempted, failed, metrics, errors, attribution);
  return 0;
}

/// --pool: one result line for several runs' summary files.
int run_pool(std::span<char* const> paths) {
  if (paths.empty()) usage("--pool needs at least one summary file");
  std::vector<Summary> runs;
  for (const char* path : paths) runs.push_back(read_summary(path));
  std::vector<std::string> errors;
  const Summary pooled = pool(runs, errors);
  report("pool of " + std::to_string(runs.size()) + " runs", pooled.attempted, pooled.failed,
         end_to_end(pooled), errors, "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fftgrad::telemetry::init_from_env();
  try {
    if (argc >= 2 && std::string_view(argv[1]) == "--pool") {
      return run_pool(std::span<char* const>(argv + 2, static_cast<std::size_t>(argc - 2)));
    }
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fftgrad_bench: %s\n", error.what());
    return 1;
  }
}
