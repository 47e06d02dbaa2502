// The paper's gradient compression pipeline (Fig 3):
//
//   1. linearize          — the caller already passes a flat gradient
//   2. fp16 conversion    — float -> half -> float (bounded gradients lose
//                           negligible information; models the throughput
//                           doubling of mixed-precision FFT)
//   3. FFT                — real-to-complex transform of the 1-D signal
//   4. top-k truncation   — keep the (1-theta) fraction of frequency bins
//                           with the largest modulus, zero the rest
//   5. range quantization — the kept bins' re/im parts go through the
//                           offset-based N-bit float (quant::RangeFloat);
//                           the codec is calibrated from the first
//                           gradients seen, as in the paper
//   6. packing            — survivors are packed densely; a status bitmap
//                           over frequency bins travels alongside
//
// decompress() inverts 6..3 and returns the real part of the inverse FFT.
// Setting quantizer_bits = 0 disables stage 5 (raw float32 coefficients),
// the ablation of bench_ablation_quant.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "fftgrad/core/compressor.h"
#include "fftgrad/fft/fft.h"
#include "fftgrad/quant/range_float.h"

namespace fftgrad::core {

struct FftCompressorOptions {
  double theta = 0.85;      ///< fraction of frequency bins dropped
  int quantizer_bits = 10;  ///< N of the range-based float; 0 = no quantization
  bool use_fp16_stage = true;
};

class FftCompressor : public GradientCompressor {
 public:
  explicit FftCompressor(FftCompressorOptions options = {});

  std::string name() const override;
  Packet compress(std::span<const float> gradient) override;
  void decompress(const Packet& packet, std::span<float> out) override;

  void set_theta(double theta) override;
  double theta() const override { return options_.theta; }

  /// Full Eq. 1 pipeline: 2 conversion passes + FFT + packing + selection.
  double modeled_seconds_per_byte(
      const perfmodel::PrimitiveThroughputs& t) const override {
    return perfmodel::seconds_per_byte(t);
  }

  const FftCompressorOptions& options() const { return options_; }
  /// The calibrated quantizer, once the first gradient has been seen.
  const std::optional<quant::RangeFloat>& quantizer() const { return quantizer_; }

 private:
  const fft::FftPlan& plan_for(std::size_t n);
  void calibrate_quantizer(std::span<const float> parts);

  FftCompressorOptions options_;
  std::map<std::size_t, fft::FftPlan> plans_;
  std::optional<quant::RangeFloat> quantizer_;
};

}  // namespace fftgrad::core
