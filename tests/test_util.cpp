#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string_view>
#include <vector>

#include "fftgrad/util/cpu.h"
#include "fftgrad/util/crc32.h"
#include "fftgrad/util/rng.h"
#include "fftgrad/util/stats.h"
#include "fftgrad/util/table.h"

namespace fftgrad::util {
namespace {

// ---------------------------------------------------------------------------
// CPU probe

/// A probe that fell back to the baseline kernels on a CPU with AVX2 would
/// pass every bit-identity test and only show as lost speed.
TEST(CpuProbe, AgreesWithTheCompilerBuiltin) {
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(cpu_has_avx2(), __builtin_cpu_supports("avx2") != 0);
#else
  EXPECT_FALSE(cpu_has_avx2());
#endif
  EXPECT_EQ(native_isa(), cpu_has_avx2() ? Isa::kAvx2 : Isa::kBaseline);
}

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversDomainWithoutOverflow) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalHasApproximatelyUnitMoments) {
  Rng rng(42);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.split();
  // The child's stream should not replicate the parent's next outputs.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// ---------------------------------------------------------------------------
// Stats

TEST(Stats, SummaryOfConstantVector) {
  std::vector<float> v(10, 3.0f);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(Stats, SummaryOfEmptyVector) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Stats, L2NormMatchesHand) {
  std::vector<float> v = {3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(l2_norm(v), 5.0);
}

TEST(Stats, L2DiffIsSymmetric) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = {4.0f, 6.0f, 3.0f};
  EXPECT_DOUBLE_EQ(l2_diff(a, b), l2_diff(b, a));
  EXPECT_DOUBLE_EQ(l2_diff(a, b), 5.0);
}

TEST(Stats, L2DiffRejectsMismatchedSizes) {
  std::vector<float> a = {1.0f}, b = {1.0f, 2.0f};
  EXPECT_THROW(l2_diff(a, b), std::invalid_argument);
}

TEST(Stats, RmsErrorOfIdenticalVectorsIsZero) {
  std::vector<float> a = {1.0f, -2.0f, 0.5f};
  EXPECT_DOUBLE_EQ(rms_error(a, a), 0.0);
}

TEST(Stats, AlphaIsZeroForPerfectReconstruction) {
  std::vector<float> v = {0.1f, -0.2f, 0.3f};
  EXPECT_DOUBLE_EQ(relative_error_alpha(v, v), 0.0);
}

TEST(Stats, AlphaIsInfiniteForZeroTrueVectorWithError) {
  std::vector<float> zero = {0.0f, 0.0f};
  std::vector<float> other = {0.1f, 0.0f};
  EXPECT_TRUE(std::isinf(relative_error_alpha(zero, other)));
  EXPECT_DOUBLE_EQ(relative_error_alpha(zero, zero), 0.0);
}

TEST(Stats, AlphaIsOneWhenReconstructionIsZero) {
  std::vector<float> v = {0.5f, -0.5f};
  std::vector<float> zero = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(relative_error_alpha(v, zero), 1.0);
}

TEST(Histogram, ConservesMassAndClampsOutliers) {
  Histogram h(-1.0, 1.0, 10);
  std::vector<float> values = {-5.0f, -0.95f, 0.0f, 0.95f, 5.0f};
  h.add(values);
  EXPECT_EQ(h.total(), 5u);
  std::size_t sum = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) sum += h.count(b);
  EXPECT_EQ(sum, 5u);
  EXPECT_EQ(h.count(0), 2u);               // -5 clamped in with -0.95
  EXPECT_EQ(h.count(h.bins() - 1), 2u);    // +5 clamped in with 0.95
}

TEST(Histogram, CentersAreBinMidpoints) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.center(0), 0.125);
  EXPECT_DOUBLE_EQ(h.center(3), 0.875);
}

TEST(Histogram, FractionSumsToOne) {
  Histogram h(-1.0, 1.0, 8);
  std::vector<float> values;
  for (int i = 0; i < 100; ++i) values.push_back(static_cast<float>(i % 7) / 7.0f - 0.5f);
  h.add(values);
  double total = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) total += h.fraction(b);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, RejectsDegenerateConfig) {
  EXPECT_THROW(Histogram(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(EmpiricalCdf, MatchesHandComputedValues) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(9.0), 1.0);
}

TEST(EmpiricalCdf, QuantileIsInverseOfAt) {
  EmpiricalCdf cdf({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.2), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 50.0);
}

// ---------------------------------------------------------------------------
// TableWriter

TEST(TableWriter, RendersAlignedTable) {
  TableWriter table({"name", "value"});
  table.add_row({std::string("alpha"), 1.5});
  table.add_row({std::string("b"), 22.0});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TableWriter, CsvHasHeaderAndRows) {
  TableWriter table({"a", "b"});
  table.add_row({static_cast<long long>(1), static_cast<long long>(2)});
  EXPECT_EQ(table.to_csv(), "a,b\n1,2\n");
}

TEST(TableWriter, RejectsRowWidthMismatch) {
  TableWriter table({"a", "b"});
  EXPECT_THROW(table.add_row({std::string("only one")}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// crc32

std::uint32_t crc_of(std::string_view text, std::uint32_t seed = 0) {
  return crc32(std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
               seed);
}

TEST(Crc32, MatchesKnownAnswerVectors) {
  // IEEE 802.3 (zlib-compatible) reference values.
  EXPECT_EQ(crc_of(""), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc_of("abc"), 0x352441C2u);
  EXPECT_EQ(crc_of("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32, ChainsAcrossSplitBuffers) {
  // crc(a ++ b) == crc(b, seed = crc(a)): the property incremental framing
  // relies on. Exercise every split point so the slice-by-4 fast path and
  // the bytewise tail both get hit on each side.
  const std::string_view text = "123456789abcdefghij";
  const std::uint32_t whole = crc_of(text);
  for (std::size_t split = 0; split <= text.size(); ++split) {
    EXPECT_EQ(crc_of(text.substr(split), crc_of(text.substr(0, split))), whole);
  }
}

TEST(Crc32, DetectsSingleAndDoubleBitFlips) {
  std::vector<std::uint8_t> data(333);
  Rng rng(77);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::uint32_t reference = crc32(data);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32(data), reference) << "missed single flip at bit " << bit;
    const std::size_t second = (bit + 999) % (data.size() * 8);
    data[second / 8] ^= static_cast<std::uint8_t>(1u << (second % 8));
    EXPECT_NE(crc32(data), reference) << "missed double flip at bits " << bit << "," << second;
    data[second / 8] ^= static_cast<std::uint8_t>(1u << (second % 8));
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(crc32(data), reference);
}

}  // namespace
}  // namespace fftgrad::util
