// Chunked compression: split the flat gradient into fixed-size chunks and
// run an independent codec instance per chunk.
//
// Why it matters for the paper's system: the whole-gradient FFT of a 250MB
// vector is one monolithic dependency, so nothing can be overlapped with
// the backward pass; per-layer (or per-chunk) compression is what a
// production integration does — each chunk can be compressed and shipped
// as soon as its layer's backward completes, and small FFTs are also far
// cheaper than one giant transform (especially at non-power-of-two sizes,
// where a whole-gradient Bluestein transform costs ~5x more per element
// than 65,536-point power-of-two chunks, bench_micro_primitives).
// The cost is a per-chunk header/mask overhead and slightly different
// sparsity allocation (top-k is taken per chunk, not globally) —
// bench_ablation_chunking quantifies the trade.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "fftgrad/core/compressor.h"

namespace fftgrad::core {

class ChunkedCompressor : public GradientCompressor {
 public:
  using InnerFactory = std::function<std::unique_ptr<GradientCompressor>(std::size_t chunk)>;

  /// Chunks of `chunk_elements` floats (the last chunk may be shorter). A
  /// fresh inner codec is created per chunk index on first use, so stateful
  /// codecs (frozen quantizers, error feedback) keep per-chunk state.
  ChunkedCompressor(InnerFactory factory, std::size_t chunk_elements);

  std::string name() const override;
  Packet compress(std::span<const float> gradient) override;
  void decompress(const Packet& packet, std::span<float> out) override;
  void set_theta(double theta) override;
  double theta() const override;
  double modeled_seconds_per_byte(
      const perfmodel::PrimitiveThroughputs& t) const override;

  std::size_t chunk_elements() const { return chunk_elements_; }
  std::size_t chunk_count() const { return codecs_.size(); }

 private:
  GradientCompressor& codec_for(std::size_t chunk);

  InnerFactory factory_;
  std::size_t chunk_elements_;
  double theta_ = 0.0;
  bool theta_set_ = false;
  std::vector<std::unique_ptr<GradientCompressor>> codecs_;
};

}  // namespace fftgrad::core
