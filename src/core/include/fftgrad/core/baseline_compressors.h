// The three published lossy baselines the paper evaluates against, plus the
// lossless no-op, all behind the same GradientCompressor interface:
//
//  * TopKCompressor — vanilla magnitude top-k sparsification in the spatial
//    domain (Aji & Heafield '17): keep the (1-theta) fraction of gradients
//    with largest |g|, transmit them in float32 plus a status bitmap.
//  * QsgdCompressor — QSGD (Alistarh et al. '17): stochastic quantization
//    of g_i / ||g||_2 onto s uniform levels; each element costs `bits` on
//    the wire (sign + level), plus one float32 norm.
//  * TernGradCompressor — TernGrad without clipping (Wen et al. '17):
//    stochastically maps each gradient to {-1, 0, +1} * max|g|, 2 bits per
//    element plus one float32 scale.
//  * NoopCompressor — float32 pass-through (the lossless SGD baseline).
#pragma once

#include "fftgrad/core/compressor.h"
#include "fftgrad/util/rng.h"

namespace fftgrad::core {

class NoopCompressor : public GradientCompressor {
 public:
  std::string name() const override { return "sgd-fp32"; }
  Packet compress(std::span<const float> gradient) override;
  void decompress(const Packet& packet, std::span<float> out) override;
  double modeled_seconds_per_byte(const perfmodel::PrimitiveThroughputs&) const override {
    return 0.0;  // pass-through: no codec work
  }
};

class TopKCompressor : public GradientCompressor {
 public:
  explicit TopKCompressor(double theta);

  std::string name() const override;
  Packet compress(std::span<const float> gradient) override;
  void decompress(const Packet& packet, std::span<float> out) override;
  void set_theta(double theta) override;
  double theta() const override { return theta_; }

  /// Selection + packing over the raw gradient (no FFT, no conversion of
  /// the kept fp32 values).
  double modeled_seconds_per_byte(
      const perfmodel::PrimitiveThroughputs& t) const override {
    return 1.0 / t.selection.to_double() + 1.0 / t.packing.to_double();
  }

 private:
  double theta_;
};

class QsgdCompressor : public GradientCompressor {
 public:
  /// `bits` per element on the wire (>= 2): 1 sign bit + (bits-1) level
  /// bits, i.e. s = 2^(bits-1) - 1 positive quantization levels.
  explicit QsgdCompressor(int bits, std::uint64_t seed = 0x95fd1e7u);

  std::string name() const override;
  Packet compress(std::span<const float> gradient) override;
  void decompress(const Packet& packet, std::span<float> out) override;
  int bits() const { return bits_; }
  std::uint32_t levels() const { return levels_; }

  /// Norm pass + stochastic quantization pass.
  double modeled_seconds_per_byte(
      const perfmodel::PrimitiveThroughputs& t) const override {
    return 1.0 / t.conversion.to_double() + 1.0 / t.stochastic.to_double();
  }

 private:
  int bits_;
  std::uint32_t levels_;
  util::Rng rng_;
};

/// Lossless-range fp16 transport: every gradient element as an IEEE
/// binary16 (fixed 2x ratio). The weakest useful baseline — what "just use
/// half precision" buys without any sparsification.
class HalfCompressor : public GradientCompressor {
 public:
  std::string name() const override { return "fp16"; }
  Packet compress(std::span<const float> gradient) override;
  void decompress(const Packet& packet, std::span<float> out) override;
  double modeled_seconds_per_byte(
      const perfmodel::PrimitiveThroughputs& t) const override {
    return 1.0 / t.conversion.to_double();
  }
};

/// 1-bit SGD (Seide et al. 2014), the earliest quantization baseline the
/// paper discusses: each element becomes its sign, scaled by the mean
/// magnitude of the positive/negative groups, with the quantization error
/// carried to the next iteration (error feedback was integral to the
/// original method). 1 bit per element + two float scales.
class OneBitCompressor : public GradientCompressor {
 public:
  std::string name() const override { return "onebit-sgd"; }
  Packet compress(std::span<const float> gradient) override;
  void decompress(const Packet& packet, std::span<float> out) override;
  double modeled_seconds_per_byte(
      const perfmodel::PrimitiveThroughputs& t) const override {
    return 2.0 / t.conversion.to_double();  // error add + sign/scale pass
  }
  std::span<const float> residual() const { return residual_; }

 private:
  std::vector<float> residual_;
};

class TernGradCompressor : public GradientCompressor {
 public:
  explicit TernGradCompressor(std::uint64_t seed = 0x7e46c0deu);

  std::string name() const override { return "terngrad"; }
  Packet compress(std::span<const float> gradient) override;
  void decompress(const Packet& packet, std::span<float> out) override;

  /// Max-reduction pass + stochastic ternarization pass.
  double modeled_seconds_per_byte(
      const perfmodel::PrimitiveThroughputs& t) const override {
    return 1.0 / t.conversion.to_double() + 1.0 / t.stochastic.to_double();
  }

 private:
  util::Rng rng_;
};

}  // namespace fftgrad::core
