// Tests for the second wave of extensions: chunked compression and the
// compressor registry.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/chunked_compressor.h"
#include "fftgrad/core/compression_stats.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/registry.h"
#include "fftgrad/util/rng.h"

namespace fftgrad {
namespace {

// ---------------------------------------------------------------------------
// ChunkedCompressor

core::ChunkedCompressor::InnerFactory fft_chunk_factory() {
  return [](std::size_t) {
    return std::make_unique<core::FftCompressor>(
        core::FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
  };
}

std::vector<float> gradient_like(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> g(n);
  for (float& v : g) v = static_cast<float>(rng.normal(0.0, 0.02));
  return g;
}

TEST(Chunked, RoundTripReconstructsEveryChunk) {
  core::ChunkedCompressor codec(fft_chunk_factory(), 1000);
  const auto g = gradient_like(3500, 60);  // 4 chunks, last partial
  std::vector<float> recon;
  const core::RoundTripStats stats = core::measure_round_trip(codec, g, recon);
  EXPECT_EQ(codec.chunk_count(), 4u);
  EXPECT_LT(stats.alpha, 1.0);
}

TEST(Chunked, ExactChunkMultiple) {
  core::ChunkedCompressor codec(fft_chunk_factory(), 512);
  const auto g = gradient_like(1024, 61);
  std::vector<float> recon(g.size());
  codec.decompress(codec.compress(g), recon);
  EXPECT_EQ(codec.chunk_count(), 2u);
}

TEST(Chunked, SingleChunkMatchesInnerCodec) {
  const auto g = gradient_like(800, 62);
  core::ChunkedCompressor chunked(fft_chunk_factory(), 100000);
  core::FftCompressor whole({.theta = 0.5, .quantizer_bits = 10});
  std::vector<float> a(g.size()), b(g.size());
  chunked.decompress(chunked.compress(g), a);
  whole.decompress(whole.compress(g), b);
  EXPECT_EQ(a, b);
}

TEST(Chunked, EmptyGradient) {
  core::ChunkedCompressor codec(fft_chunk_factory(), 128);
  std::vector<float> empty;
  const core::Packet p = codec.compress(empty);
  std::vector<float> out;
  codec.decompress(p, out);
  EXPECT_EQ(p.elements, 0u);
}

TEST(Chunked, ThetaPropagatesToAllChunks) {
  core::ChunkedCompressor codec(fft_chunk_factory(), 256);
  (void)codec.compress(gradient_like(1024, 63));
  codec.set_theta(0.9);
  EXPECT_DOUBLE_EQ(codec.theta(), 0.9);
  // New chunks created after set_theta inherit it too.
  (void)codec.compress(gradient_like(2048, 64));
  EXPECT_DOUBLE_EQ(codec.theta(), 0.9);
}

TEST(Chunked, PerChunkStateIsIndependent) {
  // Error-feedback inside chunking: residuals must be tracked per chunk.
  core::ChunkedCompressor codec(
      [](std::size_t) {
        return std::make_unique<core::ErrorFeedbackCompressor>(
            std::make_unique<core::TopKCompressor>(0.9));
      },
      500);
  const auto g = gradient_like(1000, 65);
  std::vector<float> sum(g.size(), 0.0f), recon(g.size());
  const int steps = 80;
  for (int t = 0; t < steps; ++t) {
    codec.decompress(codec.compress(g), recon);
    for (std::size_t i = 0; i < g.size(); ++i) sum[i] += recon[i] / steps;
  }
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(sum[i], g[i], 3e-3f) << i;
}

TEST(Chunked, RejectsBadConfig) {
  EXPECT_THROW(core::ChunkedCompressor(nullptr, 10), std::invalid_argument);
  EXPECT_THROW(core::ChunkedCompressor(fft_chunk_factory(), 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, BuildsEveryBaseAlgorithm) {
  EXPECT_EQ(core::make_compressor("none")->name(), "sgd-fp32");
  EXPECT_NE(core::make_compressor("fft")->name().find("fft"), std::string::npos);
  EXPECT_NE(core::make_compressor("topk")->name().find("topk"), std::string::npos);
  EXPECT_NE(core::make_compressor("qsgd")->name().find("qsgd"), std::string::npos);
  EXPECT_EQ(core::make_compressor("terngrad")->name(), "terngrad");
}

TEST(Registry, AppliesOptions) {
  auto fft = core::make_compressor("fft:theta=0.5,bits=8");
  EXPECT_DOUBLE_EQ(fft->theta(), 0.5);
  auto topk = core::make_compressor("topk:theta=0.97");
  EXPECT_DOUBLE_EQ(topk->theta(), 0.97);
  auto qsgd = core::make_compressor("qsgd:bits=5");
  EXPECT_NE(qsgd->name().find("5bit"), std::string::npos);
}

TEST(Registry, BuildsWrappedSpecs) {
  auto ef = core::make_compressor("ef[topk:theta=0.9]");
  EXPECT_EQ(ef->name(), "ef[topk(theta=0.900000)]");
  auto chunked = core::make_compressor("chunked:4096[fft:theta=0.85,bits=10]");
  const auto g = gradient_like(10000, 70);
  std::vector<float> recon(g.size());
  chunked->decompress(chunked->compress(g), recon);
  EXPECT_NE(chunked->name().find("chunked(4096)"), std::string::npos);
}

TEST(Registry, NestedWrappersCompose) {
  auto codec = core::make_compressor("chunked:1000[ef[fft:theta=0.9,bits=10]]");
  const auto g = gradient_like(2500, 71);
  std::vector<float> recon;
  const core::RoundTripStats stats = core::measure_round_trip(*codec, g, recon);
  EXPECT_TRUE(std::isfinite(stats.alpha));
}

TEST(Registry, RoundTripsThroughBuiltCodecs) {
  for (const char* spec : {"none", "fft:theta=0.85,bits=10", "topk:theta=0.85",
                           "qsgd:bits=3", "terngrad", "ef[fft:theta=0.9,bits=8]"}) {
    auto codec = core::make_compressor(spec);
    const auto g = gradient_like(2048, 72);
    std::vector<float> recon;
    const core::RoundTripStats stats = core::measure_round_trip(*codec, g, recon);
    EXPECT_TRUE(std::isfinite(stats.alpha)) << spec;
    EXPECT_GT(stats.ratio, 0.9) << spec;
  }
}

TEST(Registry, RejectsMalformedSpecs) {
  EXPECT_THROW(core::make_compressor(""), std::invalid_argument);
  EXPECT_THROW(core::make_compressor("nosuch"), std::invalid_argument);
  EXPECT_THROW(core::make_compressor("fft:theta"), std::invalid_argument);
  EXPECT_THROW(core::make_compressor("fft:theta=abc"), std::invalid_argument);
  EXPECT_THROW(core::make_compressor("fft:bogus=1"), std::invalid_argument);
  EXPECT_THROW(core::make_compressor("ef[fft"), std::invalid_argument);
  EXPECT_THROW(core::make_compressor("chunked:0[fft]"), std::invalid_argument);
  EXPECT_THROW(core::make_compressor("chunked:abc[fft]"), std::invalid_argument);
  EXPECT_THROW(core::make_compressor("fft:theta=2.0"), std::invalid_argument);  // codec rejects
}

}  // namespace
}  // namespace fftgrad
