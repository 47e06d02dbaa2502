#include "fftgrad/core/baseline_compressors.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/quant/half.h"
#include "fftgrad/quant/range_float.h"
#include "fftgrad/sparse/mask_coding.h"
#include "fftgrad/sparse/pack.h"
#include "fftgrad/sparse/topk.h"
#include "fftgrad/telemetry/trace.h"
#include "fftgrad/util/stats.h"

namespace fftgrad::core {

// ---------------------------------------------------------------------------
// NoopCompressor

Packet NoopCompressor::compress(std::span<const float> gradient) {
  telemetry::TraceSpan trace_span("noop.compress", "codec");
  Packet packet;
  packet.elements = gradient.size();
  wire::put_span<float>(packet.bytes, gradient);
  record_codec_packet(packet.elements, packet);
  return packet;
}

void NoopCompressor::decompress(const Packet& packet, std::span<float> out) {
  telemetry::TraceSpan trace_span("noop.decompress", "codec");
  if (out.size() != packet.elements) {
    throw std::invalid_argument("NoopCompressor: output size mismatch");
  }
  wire::Reader reader(packet.bytes);
  reader.get_span<float>(out);
}

// ---------------------------------------------------------------------------
// TopKCompressor

TopKCompressor::TopKCompressor(double theta) : theta_(theta) {
  if (theta < 0.0 || theta >= 1.0) {
    throw std::invalid_argument("TopKCompressor: theta must be in [0, 1)");
  }
}

std::string TopKCompressor::name() const { return "topk(theta=" + std::to_string(theta_) + ")"; }

void TopKCompressor::set_theta(double theta) {
  if (theta < 0.0 || theta >= 1.0) {
    throw std::invalid_argument("TopKCompressor: theta must be in [0, 1)");
  }
  theta_ = theta;
}

Packet TopKCompressor::compress(std::span<const float> gradient) {
  telemetry::TraceSpan trace_span("topk.compress", "codec");
  Packet packet;
  packet.elements = gradient.size();
  const std::size_t n = gradient.size();
  if (n == 0) return packet;
  const std::size_t kept_target = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround((1.0 - theta_) * static_cast<double>(n))));

  std::vector<float> magnitudes(n);
  for (std::size_t i = 0; i < n; ++i) magnitudes[i] = std::fabs(gradient[i]);
  const sparse::Bitmap mask = sparse::topk_mask(magnitudes, kept_target);
  auto& pool = parallel::ThreadPool::global();
  const std::vector<float> kept = sparse::pack_bitmap<float>(pool, gradient, mask);

  wire::put<std::uint64_t>(packet.bytes, n);
  wire::put<std::uint64_t>(packet.bytes, kept.size());
  const std::vector<std::uint8_t> mask_bytes = sparse::encode_mask(mask);
  wire::put<std::uint64_t>(packet.bytes, mask_bytes.size());
  wire::put_span<std::uint8_t>(packet.bytes, mask_bytes);
  wire::put_span<float>(packet.bytes, kept);
  record_codec_packet(packet.elements, packet);
  return packet;
}

void TopKCompressor::decompress(const Packet& packet, std::span<float> out) {
  telemetry::TraceSpan trace_span("topk.decompress", "codec");
  if (out.size() != packet.elements) {
    throw std::invalid_argument("TopKCompressor: output size mismatch");
  }
  if (packet.elements == 0) return;
  wire::Reader reader(packet.bytes);
  const auto n = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (n != packet.elements) throw std::runtime_error("TopKCompressor: corrupt packet");
  const auto kept_count = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (kept_count > n) throw std::runtime_error("TopKCompressor: corrupt kept count");
  const std::size_t mask_size = reader.get_count(sizeof(std::uint8_t));
  std::vector<std::uint8_t> mask_bytes(mask_size);
  reader.get_span<std::uint8_t>(mask_bytes);
  // Receiver expectation: survivor count must match the value payload.
  const sparse::Bitmap mask =
      std::move(sparse::decode_mask(mask_bytes, n))
          .release([&](const sparse::Bitmap& m) { return m.count() == kept_count; },
                   "top-k keep-mask");
  std::vector<float> kept(kept_count);
  reader.get_span<float>(kept);
  auto& pool = parallel::ThreadPool::global();
  sparse::unpack_bitmap<float>(pool, kept, mask, out);
}

// ---------------------------------------------------------------------------
// QsgdCompressor

QsgdCompressor::QsgdCompressor(int bits, std::uint64_t seed) : bits_(bits), rng_(seed) {
  if (bits < 2 || bits > 16) throw std::invalid_argument("QsgdCompressor: bits must be in [2, 16]");
  levels_ = (std::uint32_t{1} << (bits - 1)) - 1;
}

std::string QsgdCompressor::name() const { return "qsgd(" + std::to_string(bits_) + "bit)"; }

Packet QsgdCompressor::compress(std::span<const float> gradient) {
  telemetry::TraceSpan trace_span("qsgd.compress", "codec");
  Packet packet;
  packet.elements = gradient.size();
  const std::size_t n = gradient.size();
  if (n == 0) return packet;

  const float norm = static_cast<float>(util::l2_norm(gradient));
  std::vector<std::uint32_t> codes(n, 0);
  if (norm > 0.0f) {
    const float s = static_cast<float>(levels_);
    const std::uint32_t sign_bit = std::uint32_t{1} << (bits_ - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const float g = gradient[i];
      const float r = std::fabs(g) / norm * s;  // in [0, s]
      auto level = static_cast<std::uint32_t>(r);
      const float frac = r - static_cast<float>(level);
      if (rng_.bernoulli(frac)) ++level;
      if (level > levels_) level = levels_;
      if (level == 0) continue;
      codes[i] = level | (g < 0.0f ? sign_bit : 0u);
    }
  }
  wire::put<std::uint64_t>(packet.bytes, n);
  wire::put<float>(packet.bytes, norm);
  const std::vector<std::uint8_t> packed = quant::pack_codes(codes, bits_);
  wire::put_span<std::uint8_t>(packet.bytes, packed);
  record_codec_packet(packet.elements, packet);
  return packet;
}

void QsgdCompressor::decompress(const Packet& packet, std::span<float> out) {
  telemetry::TraceSpan trace_span("qsgd.decompress", "codec");
  if (out.size() != packet.elements) {
    throw std::invalid_argument("QsgdCompressor: output size mismatch");
  }
  if (packet.elements == 0) return;
  wire::Reader reader(packet.bytes);
  const auto n = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (n != packet.elements) throw std::runtime_error("QsgdCompressor: corrupt packet");
  const float norm = reader.get<float>();
  std::vector<std::uint8_t> packed(reader.remaining());
  reader.get_span<std::uint8_t>(packed);
  const std::vector<std::uint32_t> codes =
      std::move(quant::unpack_codes(packed, bits_, n))
          .release([&](const std::vector<std::uint32_t>& c) { return c.size() == n; },
                   "QSGD codes");
  const float s = static_cast<float>(levels_);
  const std::uint32_t sign_bit = std::uint32_t{1} << (bits_ - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t code = codes[i];
    const auto level = static_cast<float>(code & (sign_bit - 1));
    const float sign = (code & sign_bit) ? -1.0f : 1.0f;
    out[i] = norm == 0.0f ? 0.0f : sign * level / s * norm;
  }
}

// ---------------------------------------------------------------------------
// HalfCompressor

Packet HalfCompressor::compress(std::span<const float> gradient) {
  telemetry::TraceSpan trace_span("fp16.compress", "codec");
  Packet packet;
  packet.elements = gradient.size();
  if (gradient.empty()) return packet;
  std::vector<quant::Half> halves(gradient.size());
  quant::float_to_half(gradient, halves);
  wire::put<std::uint64_t>(packet.bytes, gradient.size());
  wire::put_span<quant::Half>(packet.bytes, halves);
  record_codec_packet(packet.elements, packet);
  return packet;
}

void HalfCompressor::decompress(const Packet& packet, std::span<float> out) {
  telemetry::TraceSpan trace_span("fp16.decompress", "codec");
  if (out.size() != packet.elements) {
    throw std::invalid_argument("HalfCompressor: output size mismatch");
  }
  if (packet.elements == 0) return;
  wire::Reader reader(packet.bytes);
  const auto n = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (n != packet.elements) throw std::runtime_error("HalfCompressor: corrupt packet");
  std::vector<quant::Half> halves(n);
  reader.get_span<quant::Half>(halves);
  quant::half_to_float(halves, out);
}

// ---------------------------------------------------------------------------
// OneBitCompressor

Packet OneBitCompressor::compress(std::span<const float> gradient) {
  telemetry::TraceSpan trace_span("onebit.compress", "codec");
  Packet packet;
  packet.elements = gradient.size();
  const std::size_t n = gradient.size();
  if (n == 0) return packet;
  if (residual_.size() != n) residual_.assign(n, 0.0f);

  // Quantize g + residual; group means preserve the column-wise scale the
  // original method used (one scale pair here — the whole gradient is one
  // "column" after linearization).
  std::vector<std::uint32_t> signs(n);
  double positive_sum = 0.0, negative_sum = 0.0;
  std::size_t positive_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float corrected = gradient[i] + residual_[i];
    if (corrected >= 0.0f) {
      signs[i] = 1;
      positive_sum += corrected;
      ++positive_count;
    } else {
      signs[i] = 0;
      negative_sum += corrected;
    }
  }
  const float positive_scale =
      positive_count == 0 ? 0.0f
                          : static_cast<float>(positive_sum / static_cast<double>(positive_count));
  const std::size_t negative_count = n - positive_count;
  const float negative_scale =
      negative_count == 0
          ? 0.0f
          : static_cast<float>(negative_sum / static_cast<double>(negative_count));

  for (std::size_t i = 0; i < n; ++i) {
    const float corrected = gradient[i] + residual_[i];
    const float delivered = signs[i] ? positive_scale : negative_scale;
    residual_[i] = corrected - delivered;
  }

  wire::put<std::uint64_t>(packet.bytes, n);
  wire::put<float>(packet.bytes, positive_scale);
  wire::put<float>(packet.bytes, negative_scale);
  const std::vector<std::uint8_t> packed = quant::pack_codes(signs, 1);
  wire::put_span<std::uint8_t>(packet.bytes, packed);
  record_codec_packet(packet.elements, packet);
  return packet;
}

void OneBitCompressor::decompress(const Packet& packet, std::span<float> out) {
  telemetry::TraceSpan trace_span("onebit.decompress", "codec");
  if (out.size() != packet.elements) {
    throw std::invalid_argument("OneBitCompressor: output size mismatch");
  }
  if (packet.elements == 0) return;
  wire::Reader reader(packet.bytes);
  const auto n = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (n != packet.elements) throw std::runtime_error("OneBitCompressor: corrupt packet");
  const float positive_scale = reader.get<float>();
  const float negative_scale = reader.get<float>();
  std::vector<std::uint8_t> packed(reader.remaining());
  reader.get_span<std::uint8_t>(packed);
  const std::vector<std::uint32_t> signs =
      std::move(quant::unpack_codes(packed, 1, n))
          .release([&](const std::vector<std::uint32_t>& c) { return c.size() == n; },
                   "one-bit signs");
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = signs[i] ? positive_scale : negative_scale;
  }
}

// ---------------------------------------------------------------------------
// TernGradCompressor

TernGradCompressor::TernGradCompressor(std::uint64_t seed) : rng_(seed) {}

Packet TernGradCompressor::compress(std::span<const float> gradient) {
  telemetry::TraceSpan trace_span("terngrad.compress", "codec");
  Packet packet;
  packet.elements = gradient.size();
  const std::size_t n = gradient.size();
  if (n == 0) return packet;

  float scale = 0.0f;
  for (float g : gradient) scale = std::max(scale, std::fabs(g));
  std::vector<std::uint32_t> codes(n, 0);  // 0 -> 0, 1 -> +1, 2 -> -1
  if (scale > 0.0f) {
    for (std::size_t i = 0; i < n; ++i) {
      const float g = gradient[i];
      const float p = std::fabs(g) / scale;
      if (rng_.bernoulli(p)) codes[i] = g < 0.0f ? 2u : 1u;
    }
  }
  wire::put<std::uint64_t>(packet.bytes, n);
  wire::put<float>(packet.bytes, scale);
  const std::vector<std::uint8_t> packed = quant::pack_codes(codes, 2);
  wire::put_span<std::uint8_t>(packet.bytes, packed);
  record_codec_packet(packet.elements, packet);
  return packet;
}

void TernGradCompressor::decompress(const Packet& packet, std::span<float> out) {
  telemetry::TraceSpan trace_span("terngrad.decompress", "codec");
  if (out.size() != packet.elements) {
    throw std::invalid_argument("TernGradCompressor: output size mismatch");
  }
  if (packet.elements == 0) return;
  wire::Reader reader(packet.bytes);
  const auto n = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (n != packet.elements) throw std::runtime_error("TernGradCompressor: corrupt packet");
  const float scale = reader.get<float>();
  std::vector<std::uint8_t> packed(reader.remaining());
  reader.get_span<std::uint8_t>(packed);
  // Ternary code space is {0, +1, -1}: a wire value of 3 is well-formed at
  // the bit level but semantically invalid, so reject it here rather than
  // silently decoding it as -scale.
  const std::vector<std::uint32_t> codes =
      std::move(quant::unpack_codes(packed, 2, n))
          .release([&](const std::vector<std::uint32_t>& c) {
            if (c.size() != n) return false;
            for (std::uint32_t code : c) {
              if (code > 2) return false;
            }
            return true;
          }, "ternary codes");
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = codes[i] == 0 ? 0.0f : (codes[i] == 1 ? scale : -scale);
  }
}

}  // namespace fftgrad::core
