// FftCompressor against the pipeline it fuses, and its heap traffic.
//
// compress() and decompress() run the paper's stages as fused passes over
// per-thread scratch. Each packet must still be, byte for byte, the one
// the public primitives build stage by stage (half_round_trip -> rfft into
// its own buffer -> bin moduli -> topk_mask -> pack_bitmap -> peak and
// normalize -> RangeFloat::encode -> pack_codes), and each reconstruction
// bit for bit what unpack_codes -> decode -> x peak -> unpack_bitmap ->
// irfft gives. Sizes cover every transform path: a Bluestein half
// (333,834 and 6,154), a power-of-two half (65,536) and an odd length
// (15,013), pooled and inside ScopedInlineChunks.
//
// A counting operator new, kept to this binary, bounds what one warm round
// trip allocates: the packet and small bookkeeping, not the working
// buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/registry.h"
#include "fftgrad/parallel/thread_pool.h"
#include "fftgrad/quant/half.h"
#include "fftgrad/sparse/mask_coding.h"
#include "fftgrad/sparse/pack.h"
#include "fftgrad/sparse/topk.h"
#include "fftgrad/util/rng.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every byte operator new hands out, on any
// thread.

namespace {
std::atomic<std::size_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocated_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocated_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Every pointer these receive came from the malloc-backed operator new
// above; GCC cannot see that pairing and warns about free() on new'd
// memory, so the diagnostic is suppressed for the definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace fftgrad::core {
namespace {

constexpr double kTheta = 0.85;
constexpr int kBits = 10;

/// Gradient-like values: N(0, sigma), with sigma = 1e-3 putting ~5% of
/// them in fp16's subnormal range.
std::vector<float> gradient(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> g(n);
  for (float& v : g) v = static_cast<float>(rng.normal() * 1e-3);
  return g;
}

/// The packet compress() must produce, stage by stage. `quantizer` is the
/// codec's calibration: empty before the first call, which makes it from
/// that call's normalized coefficients, as compress() does.
std::vector<std::uint8_t> reference_packet(std::span<const float> g,
                                           std::optional<quant::RangeFloat>& quantizer) {
  const std::size_t n = g.size();
  std::vector<float> signal(n);
  quant::half_round_trip(g, signal);
  const fft::FftPlan plan(n);
  std::vector<fft::cfloat> spectrum(plan.real_bins());
  plan.rfft(signal, spectrum);
  std::vector<float> moduli(spectrum.size());
  for (std::size_t k = 0; k < spectrum.size(); ++k) moduli[k] = std::abs(spectrum[k]);
  const std::size_t kept_target = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround((1.0 - kTheta) * static_cast<double>(spectrum.size()))));
  const sparse::Bitmap mask = sparse::topk_mask(moduli, kept_target);
  const std::vector<fft::cfloat> kept =
      sparse::pack_bitmap<fft::cfloat>(parallel::ThreadPool::global(), spectrum, mask);
  std::vector<float> parts;
  for (const fft::cfloat& bin : kept) {
    parts.push_back(bin.real());
    parts.push_back(bin.imag());
  }
  float peak = 0.0f;
  for (float v : parts) peak = std::max(peak, std::fabs(v));
  const float inv_peak = 1.0f / peak;
  std::vector<float> normalized(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) normalized[i] = parts[i] * inv_peak;
  if (!quantizer) quantizer = quant::RangeFloat::tune(kBits, -1.0f, 1.0f, normalized);
  std::vector<std::uint32_t> codes(parts.size());
  quantizer->encode(normalized, codes);

  std::vector<std::uint8_t> bytes;
  wire::put<std::uint64_t>(bytes, n);
  wire::put<std::uint64_t>(bytes, kept.size());
  wire::put<std::uint8_t>(bytes, 1);  // quantized
  const quant::RangeFloatParams& p = quantizer->params();
  wire::put<std::int32_t>(bytes, p.bits);
  wire::put<std::int32_t>(bytes, p.mantissa_bits);
  wire::put<float>(bytes, p.min);
  wire::put<float>(bytes, p.max);
  wire::put<float>(bytes, p.eps);
  wire::put<float>(bytes, peak);
  std::vector<std::uint8_t> mask_bytes;
  sparse::encode_mask(mask, mask_bytes);
  wire::put<std::uint64_t>(bytes, mask_bytes.size());
  wire::put_span<std::uint8_t>(bytes, mask_bytes);
  quant::pack_codes(codes, p.bits, bytes);
  return bytes;
}

/// What decompress() must reconstruct from `packet`, stage by stage.
std::vector<float> reference_reconstruction(const Packet& packet) {
  wire::Reader reader(packet.bytes);
  const auto n = static_cast<std::size_t>(reader.get<std::uint64_t>());
  const auto kept_count = static_cast<std::size_t>(reader.get<std::uint64_t>());
  EXPECT_EQ(reader.get<std::uint8_t>(), 1u);
  quant::RangeFloatParams p;
  p.bits = reader.get<std::int32_t>();
  p.mantissa_bits = reader.get<std::int32_t>();
  p.min = reader.get<float>();
  p.max = reader.get<float>();
  p.eps = reader.get<float>();
  const float peak = reader.get<float>();
  const quant::RangeFloat codec(p);
  const fft::FftPlan plan(n);
  const sparse::Bitmap mask =
      sparse::decode_mask(reader.get_bytes(reader.get_count(1)), plan.real_bins())
          .release([&](const sparse::Bitmap& m) { return m.count() == kept_count; },
                   "reference keep-mask");
  std::vector<std::uint32_t> codes(2 * kept_count);
  (void)quant::unpack_codes(reader.get_bytes(reader.remaining()), p.bits, codes)
      .release([](std::span<const std::uint32_t>) { return true; }, "reference codes");
  std::vector<fft::cfloat> kept(kept_count);
  for (std::size_t j = 0; j < kept_count; ++j) {
    kept[j] = fft::cfloat(codec.decode(codes[2 * j]) * peak, codec.decode(codes[2 * j + 1]) * peak);
  }
  std::vector<fft::cfloat> spectrum(plan.real_bins());
  sparse::unpack_bitmap<fft::cfloat>(parallel::ThreadPool::global(), kept, mask, spectrum);
  std::vector<float> out(n);
  plan.irfft(spectrum, out);
  return out;
}

std::vector<std::uint32_t> bits_of(const std::vector<float>& values) {
  std::vector<std::uint32_t> bits(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) bits[i] = std::bit_cast<std::uint32_t>(values[i]);
  return bits;
}

/// Three gradients through one codec (the first calibrates it), each
/// packet and reconstruction against the references.
void expect_pinned(std::size_t n) {
  FftCompressor codec({.theta = kTheta, .quantizer_bits = kBits});
  std::optional<quant::RangeFloat> quantizer;
  for (std::uint64_t call = 0; call < 3; ++call) {
    const std::vector<float> g = gradient(n, 100 * n + call);
    const Packet packet = codec.compress(g);
    ASSERT_EQ(packet.bytes, reference_packet(g, quantizer)) << "n=" << n << " call " << call;
    std::vector<float> out(n);
    codec.decompress(packet, out);
    EXPECT_EQ(bits_of(out), bits_of(reference_reconstruction(packet)))
        << "n=" << n << " call " << call;
  }
}

class FftCodecPinned : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftCodecPinned, MatchesTheStageByStagePipelinePooled) { expect_pinned(GetParam()); }

TEST_P(FftCodecPinned, MatchesTheStageByStagePipelineInline) {
  const parallel::ScopedInlineChunks inline_chunks;
  expect_pinned(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftCodecPinned, ::testing::Values(333834, 65536, 15013, 6154));

/// Bytes operator new hands out over one round trip of `spec` on a
/// gradient of n, after two warm-up round trips.
std::size_t warm_round_trip_bytes(const char* spec, std::size_t n) {
  const std::unique_ptr<GradientCompressor> codec = make_compressor(spec);
  const std::vector<float> g = gradient(n, 7);
  std::vector<float> out(n);
  for (int warm = 0; warm < 2; ++warm) codec->decompress(codec->compress(g), out);
  const std::size_t before = g_allocated_bytes.load();
  codec->decompress(codec->compress(g), out);
  return g_allocated_bytes.load() - before;
}

TEST(FftCodecHeap, WarmRoundTripAllocatesUnderHalfAMegabyte) {
  constexpr std::size_t kBound = 500'000;
  EXPECT_LT(warm_round_trip_bytes("fft", 333834), kBound);
  EXPECT_LT(warm_round_trip_bytes("chunked:65536[fft]", 333834), kBound);
  const parallel::ScopedInlineChunks inline_chunks;
  EXPECT_LT(warm_round_trip_bytes("fft", 333834), kBound);
  EXPECT_LT(warm_round_trip_bytes("chunked:65536[fft]", 333834), kBound);
}

/// A warm chunked decode reuses one packet buffer for its chunks: it
/// allocates less than half of what a copy of every chunk's bytes would.
TEST(FftCodecHeap, WarmChunkedDecodeAllocatesUnderHalfItsPacket) {
  const auto expect_small_decode = [] {
    const std::unique_ptr<GradientCompressor> codec = make_compressor("chunked:65536[fft]");
    const std::vector<float> g = gradient(333834, 7);
    std::vector<float> out(g.size());
    const Packet packet = codec->compress(g);
    for (int warm = 0; warm < 2; ++warm) codec->decompress(packet, out);
    const std::size_t before = g_allocated_bytes.load();
    codec->decompress(packet, out);
    EXPECT_LT(g_allocated_bytes.load() - before, packet.wire_bytes() / 2);
  };
  expect_small_decode();
  const parallel::ScopedInlineChunks inline_chunks;
  expect_small_decode();
}

}  // namespace
}  // namespace fftgrad::core
