#include "fftgrad/core/fft_compressor.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/quant/half.h"
#include "fftgrad/sparse/mask_coding.h"
#include "fftgrad/sparse/pack.h"
#include "fftgrad/sparse/topk.h"
#include "fftgrad/telemetry/trace.h"

namespace fftgrad::core {
namespace {

constexpr std::uint8_t kFlagQuantized = 1;

}  // namespace

FftCompressor::FftCompressor(FftCompressorOptions options) : options_(options) {
  if (options_.theta < 0.0 || options_.theta >= 1.0) {
    throw std::invalid_argument("FftCompressor: theta must be in [0, 1)");
  }
  if (options_.quantizer_bits != 0 &&
      (options_.quantizer_bits < 3 || options_.quantizer_bits > 23)) {
    throw std::invalid_argument("FftCompressor: quantizer_bits must be 0 or in [3, 23]");
  }
}

std::string FftCompressor::name() const {
  return "fft(theta=" + std::to_string(options_.theta) +
         ",q=" + std::to_string(options_.quantizer_bits) + ")";
}

void FftCompressor::set_theta(double theta) {
  if (theta < 0.0 || theta >= 1.0) {
    throw std::invalid_argument("FftCompressor: theta must be in [0, 1)");
  }
  options_.theta = theta;
}

const fft::FftPlan& FftCompressor::plan_for(std::size_t n) {
  auto it = plans_.find(n);
  if (it == plans_.end()) it = plans_.emplace(n, fft::FftPlan(n)).first;
  return it->second;
}

void FftCompressor::calibrate_quantizer(std::span<const float> normalized_parts) {
  // Coefficients are peak-normalized into [-1, 1] before quantization (the
  // peak travels in the packet header), so the codec is calibrated once on
  // the normalized distribution and stays valid as gradient magnitudes
  // shrink over training. Without the normalization a codec frozen on the
  // first (large) gradients underflows everything to zero once training
  // reduces gradient scale — the failure mode behind the paper's advice to
  // estimate the range "from the first few iterations" only works if the
  // representation is scale-free.
  quantizer_ =
      quant::RangeFloat::tune(options_.quantizer_bits, -1.0f, 1.0f, normalized_parts);
}

Packet FftCompressor::compress(std::span<const float> gradient) {
  Packet packet;
  packet.elements = gradient.size();
  const std::size_t n = gradient.size();
  if (n == 0) return packet;

  // Stage 2: fp16 conversion.
  std::vector<float> signal(n);
  {
    telemetry::TraceSpan span("fft.fp16", "codec");
    if (options_.use_fp16_stage) {
      quant::half_round_trip(gradient, signal);
    } else {
      std::copy(gradient.begin(), gradient.end(), signal.begin());
    }
  }

  // Stage 3: real FFT.
  const fft::FftPlan& plan = plan_for(n);
  const std::size_t bins = plan.real_bins();
  std::vector<fft::cfloat> spectrum(bins);
  {
    telemetry::TraceSpan span("fft.rfft", "codec");
    plan.rfft(signal, spectrum);
  }

  // Stage 4: top-k truncation over bin moduli.
  const std::size_t kept_target = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround((1.0 - options_.theta) *
                                               static_cast<double>(bins))));
  std::vector<float> magnitudes(bins);
  sparse::Bitmap mask;
  {
    telemetry::TraceSpan span("fft.lowpass", "codec");
    for (std::size_t i = 0; i < bins; ++i) magnitudes[i] = std::abs(spectrum[i]);
    mask = sparse::topk_mask(magnitudes, kept_target);
  }

  // Stage 6 (gather part): pack surviving bins densely, in bin order.
  auto& pool = parallel::ThreadPool::global();
  std::vector<fft::cfloat> kept;
  {
    telemetry::TraceSpan span("fft.pack", "codec");
    kept = sparse::pack_bitmap<fft::cfloat>(pool, spectrum, mask);
  }
  // View the kept coefficients as interleaved re/im floats for stage 5.
  std::span<const float> parts(reinterpret_cast<const float*>(kept.data()), kept.size() * 2);

  // Stage 5: range-based quantization of the peak-normalized coefficients.
  float peak = 0.0f;
  bool quantized = false;
  std::vector<float> normalized;
  {
    telemetry::TraceSpan span("fft.quantize", "codec");
    for (float v : parts) peak = std::max(peak, std::fabs(v));
    quantized = options_.quantizer_bits != 0 && peak > 0.0f;
    if (quantized) {
      normalized.resize(parts.size());
      const float inv_peak = 1.0f / peak;
      for (std::size_t i = 0; i < parts.size(); ++i) normalized[i] = parts[i] * inv_peak;
      if (!quantizer_) calibrate_quantizer(normalized);
    }
  }

  // Wire format: header, bitmap words, then coefficient payload.
  telemetry::TraceSpan encode_span("fft.encode", "codec");
  wire::put<std::uint64_t>(packet.bytes, n);
  wire::put<std::uint64_t>(packet.bytes, kept.size());
  std::uint8_t flags = quantized ? kFlagQuantized : 0;
  wire::put<std::uint8_t>(packet.bytes, flags);
  if (quantized) {
    const quant::RangeFloatParams& p = quantizer_->params();
    wire::put<std::int32_t>(packet.bytes, p.bits);
    wire::put<std::int32_t>(packet.bytes, p.mantissa_bits);
    wire::put<float>(packet.bytes, p.min);
    wire::put<float>(packet.bytes, p.max);
    wire::put<float>(packet.bytes, p.eps);
    wire::put<float>(packet.bytes, peak);
  }
  const std::vector<std::uint8_t> mask_bytes = sparse::encode_mask(mask);
  wire::put<std::uint64_t>(packet.bytes, mask_bytes.size());
  wire::put_span<std::uint8_t>(packet.bytes, mask_bytes);
  if (quantized) {
    std::vector<std::uint32_t> codes(normalized.size());
    quantizer_->encode(normalized, codes);
    const std::vector<std::uint8_t> packed =
        quant::pack_codes(codes, quantizer_->params().bits);
    wire::put_span<std::uint8_t>(packet.bytes, packed);
  } else {
    wire::put_span<float>(packet.bytes, parts);
  }
  record_codec_packet(n, packet);
  return packet;
}

void FftCompressor::decompress(const Packet& packet, std::span<float> out) {
  if (out.size() != packet.elements) {
    throw std::invalid_argument("FftCompressor::decompress: output size mismatch");
  }
  if (packet.elements == 0) return;
  wire::Reader reader(packet.bytes);
  const auto n = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (n != packet.elements) throw std::runtime_error("FftCompressor: corrupt packet header");
  const auto kept_count = static_cast<std::size_t>(reader.get<std::uint64_t>());
  const std::uint8_t flags = reader.get<std::uint8_t>();

  std::optional<quant::RangeFloat> codec;
  float peak = 1.0f;
  if (flags & kFlagQuantized) {
    quant::RangeFloatParams p;
    p.bits = reader.get<std::int32_t>();
    p.mantissa_bits = reader.get<std::int32_t>();
    p.min = reader.get<float>();
    p.max = reader.get<float>();
    p.eps = reader.get<float>();
    peak = reader.get<float>();
    codec.emplace(p);
  }

  const fft::FftPlan& plan = plan_for(n);
  const std::size_t bins = plan.real_bins();
  if (kept_count > bins) throw std::runtime_error("FftCompressor: corrupt kept count");
  const std::size_t mask_size = reader.get_count(sizeof(std::uint8_t));
  std::vector<std::uint8_t> mask_bytes(mask_size);
  reader.get_span<std::uint8_t>(mask_bytes);
  // Receiver expectation: the mask's survivor count must match the packet's
  // kept-coefficient count, or unpack_bitmap would mispair values and bins.
  const sparse::Bitmap mask =
      std::move(sparse::decode_mask(mask_bytes, bins))
          .release([&](const sparse::Bitmap& m) { return m.count() == kept_count; },
                   "FFT keep-mask");

  std::vector<fft::cfloat> kept(kept_count);
  std::span<float> parts(reinterpret_cast<float*>(kept.data()), kept_count * 2);
  {
    telemetry::TraceSpan span("fft.dequantize", "codec");
    if (codec) {
      std::vector<std::uint8_t> packed(reader.remaining());
      reader.get_span<std::uint8_t>(packed);
      const std::vector<std::uint32_t> codes =
          std::move(quant::unpack_codes(packed, codec->params().bits, parts.size()))
              .release([&](const std::vector<std::uint32_t>& c) {
                return c.size() == parts.size();
              }, "FFT quantized coefficients");
      codec->decode(codes, parts);
      for (float& v : parts) v *= peak;
    } else {
      reader.get_span<float>(parts);
    }
  }

  std::vector<fft::cfloat> spectrum(bins);
  auto& pool = parallel::ThreadPool::global();
  {
    telemetry::TraceSpan span("fft.unpack", "codec");
    sparse::unpack_bitmap<fft::cfloat>(pool, kept, mask, spectrum);
  }
  telemetry::TraceSpan span("fft.irfft", "codec");
  plan.irfft(spectrum, out);
}

}  // namespace fftgrad::core
