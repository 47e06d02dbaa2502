#include "fftgrad/core/fft_compressor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/quant/half.h"
#include "fftgrad/sparse/mask_coding.h"
#include "fftgrad/sparse/pack.h"
#include "fftgrad/sparse/topk.h"
#include "fftgrad/telemetry/trace.h"
#include "fftgrad/util/scratch.h"

namespace fftgrad::core {
namespace {

constexpr std::uint8_t kFlagQuantized = 1;

// Roles of the per-thread scratch (util::thread_scratch) that compress and
// decompress share: the half spectrum (compress writes the fp16 signal
// into it first, as floats, and rfft transforms it in place), the kept
// coefficients and their codes. The bin moduli borrow the transforms' own
// buffer (fft::TransformScratch), which rfft has left free.
struct SpectrumScratch;
struct KeptScratch;
struct CodeScratch;

/// `values`' floats, re at 2i and im at 2i + 1 (the array layout the
/// standard guarantees for std::complex).
std::span<float> as_floats(std::span<fft::cfloat> values) {
  return {reinterpret_cast<float*>(values.data()), 2 * values.size()};
}

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
  const fft::FftPlan& plan = plan_for(n);
  const std::size_t bins = plan.real_bins();
  const std::span<fft::cfloat> spectrum = util::thread_scratch<fft::cfloat, SpectrumScratch>(bins);

  // Stage 2: fp16 conversion, into the spectrum's storage.
  const std::span<float> signal = as_floats(spectrum).first(n);
  {
    telemetry::TraceSpan span("fft.fp16", "codec");
    if (options_.use_fp16_stage) {
      quant::half_round_trip(gradient, signal);
    } else {
      std::copy(gradient.begin(), gradient.end(), signal.begin());
    }
  }

  // Stage 3: real FFT, in place.
  {
    telemetry::TraceSpan span("fft.rfft", "codec");
    plan.rfft(signal, spectrum);
  }

  // Stage 4: top-k truncation over bin moduli.
  const std::size_t kept_target = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround((1.0 - options_.theta) *
                                               static_cast<double>(bins))));
  sparse::Bitmap mask;
  {
    telemetry::TraceSpan span("fft.lowpass", "codec");
    const std::span<float> magnitudes = util::thread_scratch<float, fft::TransformScratch>(bins);
    // |z| as glibc's hypotf computes it: the squares are exact in double,
    // summed and rooted in double, rounded once more to float. For finite
    // bins that is std::abs bit for bit, but this loop vectorizes where a
    // hypotf call per bin does not.
    for (std::size_t i = 0; i < bins; ++i) {
      const double re = spectrum[i].real();
      const double im = spectrum[i].imag();
      magnitudes[i] = static_cast<float>(std::sqrt(re * re + im * im));
    }
    mask = sparse::topk_mask(magnitudes, kept_target);
  }

  // Stage 6 (gather part): pack surviving bins densely, in bin order, and
  // take stage 5's peak |re| or |im| on the way.
  const std::size_t kept_count = mask.count();
  const std::span<fft::cfloat> kept = util::thread_scratch<fft::cfloat, KeptScratch>(kept_count);
  float peak = 0.0f;
  {
    telemetry::TraceSpan span("fft.pack", "codec");
    const std::span<const std::uint64_t> words = mask.words();
    std::size_t at = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
        const fft::cfloat bin = spectrum[64 * w + static_cast<std::size_t>(std::countr_zero(word))];
        kept[at++] = bin;
        peak = std::max(peak, std::fabs(bin.real()));
        peak = std::max(peak, std::fabs(bin.imag()));
      }
    }
  }
  // The kept coefficients as interleaved re/im floats for stage 5.
  const std::span<const float> parts = as_floats(kept);

  // Stage 5: range-based quantization of the peak-normalized coefficients.
  const bool quantized = options_.quantizer_bits != 0 && peak > 0.0f;
  const std::span<std::uint32_t> codes =
      util::thread_scratch<std::uint32_t, CodeScratch>(quantized ? parts.size() : 0);
  if (quantized) {
    telemetry::TraceSpan span("fft.quantize", "codec");
    const float inv_peak = 1.0f / peak;
    if (!quantizer_) {
      std::vector<float> normalized(parts.size());
      for (std::size_t i = 0; i < parts.size(); ++i) normalized[i] = parts[i] * inv_peak;
      calibrate_quantizer(normalized);
    }
    quantizer_->encode(parts, codes, inv_peak);
  }

  // Wire format: header, bitmap words, then coefficient payload.
  telemetry::TraceSpan encode_span("fft.encode", "codec");
  const int bits = quantized ? quantizer_->params().bits : 0;
  const std::size_t mask_size = sparse::encoded_mask_bytes(bins, kept_count);
  const std::size_t payload_size =
      quantized ? (parts.size() * static_cast<std::size_t>(bits) + 7) / 8
                : parts.size() * sizeof(float);
  packet.bytes.reserve(2 * sizeof(std::uint64_t) + sizeof(std::uint8_t) +
                       (quantized ? 2 * sizeof(std::int32_t) + 4 * sizeof(float) : 0) +
                       sizeof(std::uint64_t) + mask_size + payload_size);
  wire::put<std::uint64_t>(packet.bytes, n);
  wire::put<std::uint64_t>(packet.bytes, kept_count);
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
  wire::put<std::uint64_t>(packet.bytes, mask_size);
  sparse::encode_mask(mask, packet.bytes);
  if (quantized) {
    quant::pack_codes(codes, bits, packet.bytes);
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
  const std::span<const std::uint8_t> mask_bytes =
      reader.get_bytes(reader.get_count(sizeof(std::uint8_t)));
  // Receiver expectation: the mask's survivor count must match the packet's
  // kept-coefficient count, or unpack_bitmap would mispair values and bins.
  const sparse::Bitmap mask =
      std::move(sparse::decode_mask(mask_bytes, bins))
          .release([&](const sparse::Bitmap& m) { return m.count() == kept_count; },
                   "FFT keep-mask");

  const std::span<fft::cfloat> kept = util::thread_scratch<fft::cfloat, KeptScratch>(kept_count);
  const std::span<float> parts = as_floats(kept);
  {
    telemetry::TraceSpan span("fft.dequantize", "codec");
    if (codec) {
      const std::span<std::uint32_t> codes =
          std::move(quant::unpack_codes(reader.get_bytes(reader.remaining()), codec->params().bits,
                                        util::thread_scratch<std::uint32_t, CodeScratch>(
                                            parts.size())))
              .release([&](std::span<const std::uint32_t> c) { return c.size() == parts.size(); },
                       "FFT quantized coefficients");
      codec->decode(codes, parts, peak);
    } else {
      reader.get_span<float>(parts);
    }
  }

  const std::span<fft::cfloat> spectrum = util::thread_scratch<fft::cfloat, SpectrumScratch>(bins);
  auto& pool = parallel::ThreadPool::global();
  {
    telemetry::TraceSpan span("fft.unpack", "codec");
    sparse::unpack_bitmap<fft::cfloat>(pool, kept, mask, spectrum);
  }
  telemetry::TraceSpan span("fft.irfft", "codec");
  plan.irfft(spectrum, out);
}

}  // namespace fftgrad::core
