#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numeric>
#include <ostream>
#include <vector>

#include "fftgrad/parallel/thread_pool.h"
#include "fftgrad/sparse/bitmap.h"
#include "fftgrad/sparse/pack.h"
#include "fftgrad/sparse/topk.h"
#include "fftgrad/util/rng.h"

namespace fftgrad::sparse {
namespace {

std::vector<float> random_magnitudes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = std::fabs(static_cast<float>(rng.normal()));
  return v;
}

// ---------------------------------------------------------------------------
// Top-k selection

struct TopKCase {
  std::size_t n;
  std::size_t k;
  TopKMethod method;
};

class TopKParam : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKParam, ThresholdMatchesSortedReference) {
  const TopKCase c = GetParam();
  const auto mags = random_magnitudes(c.n, c.n * 31 + c.k);
  std::vector<float> sorted = mags;
  std::sort(sorted.begin(), sorted.end(), std::greater<float>());
  const TopKResult result = topk_threshold(mags, c.k, c.method);
  EXPECT_FLOAT_EQ(result.threshold, sorted[c.k - 1]);
  EXPECT_LT(result.above, c.k);
  EXPECT_GE(result.above + result.at_threshold, c.k);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TopKParam,
    ::testing::Values(TopKCase{100, 1, TopKMethod::kSort}, TopKCase{100, 1, TopKMethod::kNthElement},
                      TopKCase{100, 1, TopKMethod::kBucket}, TopKCase{100, 50, TopKMethod::kSort},
                      TopKCase{100, 50, TopKMethod::kNthElement},
                      TopKCase{100, 50, TopKMethod::kBucket}, TopKCase{100, 100, TopKMethod::kSort},
                      TopKCase{100, 100, TopKMethod::kBucket},
                      TopKCase{10000, 1500, TopKMethod::kSort},
                      TopKCase{10000, 1500, TopKMethod::kNthElement},
                      TopKCase{10000, 1500, TopKMethod::kBucket},
                      TopKCase{65537, 100, TopKMethod::kBucket}));

TEST(TopK, KZeroKeepsNothing) {
  const auto result = topk_threshold(random_magnitudes(10, 1), 0);
  EXPECT_TRUE(std::isinf(result.threshold));
  EXPECT_EQ(result.above, 0u);
}

TEST(TopK, KBeyondSizeThrows) {
  EXPECT_THROW(topk_threshold(random_magnitudes(5, 2), 6), std::invalid_argument);
}

TEST(TopK, BucketHandlesAllEqualValues) {
  std::vector<float> mags(1000, 0.25f);
  const auto result = topk_threshold(mags, 100, TopKMethod::kBucket);
  EXPECT_FLOAT_EQ(result.threshold, 0.25f);
  EXPECT_EQ(result.above, 0u);
  EXPECT_EQ(result.at_threshold, 1000u);
}

TEST(TopK, BucketHandlesManyDuplicatesAroundThreshold) {
  std::vector<float> mags;
  for (int i = 0; i < 500; ++i) mags.push_back(1.0f);
  for (int i = 0; i < 500; ++i) mags.push_back(2.0f);
  const auto result = topk_threshold(mags, 600, TopKMethod::kBucket);
  EXPECT_FLOAT_EQ(result.threshold, 1.0f);
  EXPECT_EQ(result.above, 500u);
}

/// Zero every element of `values` that topk_mask(|values|, k) drops, and
/// check the mask keeps exactly min(k, n) elements.
void keep_topk(std::vector<float>& values, std::size_t k) {
  std::vector<float> magnitudes(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) magnitudes[i] = std::fabs(values[i]);
  const Bitmap mask = topk_mask(magnitudes, k);
  ASSERT_EQ(mask.size(), values.size());
  EXPECT_EQ(mask.count(), std::min(k, values.size()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!mask.test(i)) values[i] = 0.0f;
  }
}

TEST(TopKMask, KeepsExactlyKSurvivors) {
  util::Rng rng(11);
  std::vector<float> values(1000);
  for (float& v : values) v = static_cast<float>(rng.normal());
  std::vector<float> copy = values;
  keep_topk(copy, 100);
  const auto survivors =
      static_cast<std::size_t>(std::count_if(copy.begin(), copy.end(),
                                             [](float v) { return v != 0.0f; }));
  EXPECT_EQ(survivors, 100u);
}

TEST(TopKMask, SurvivorsAreTheLargestMagnitudes) {
  std::vector<float> values = {0.1f, -5.0f, 0.2f, 3.0f, -0.05f, 1.0f};
  keep_topk(values, 3);
  EXPECT_EQ(values[0], 0.0f);
  EXPECT_EQ(values[1], -5.0f);
  EXPECT_EQ(values[2], 0.0f);
  EXPECT_EQ(values[3], 3.0f);
  EXPECT_EQ(values[4], 0.0f);
  EXPECT_EQ(values[5], 1.0f);
}

TEST(TopKMask, KeepsExactlyKWithTies) {
  std::vector<float> values(100, 0.5f);
  keep_topk(values, 37);
  const auto survivors =
      static_cast<std::size_t>(std::count_if(values.begin(), values.end(),
                                             [](float v) { return v != 0.0f; }));
  EXPECT_EQ(survivors, 37u);
  // Ties at the threshold are kept in index order.
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i] != 0.0f, i < 37) << i;
}

TEST(TopKMask, KZeroZerosEverything) {
  std::vector<float> values = {1.0f, 2.0f};
  keep_topk(values, 0);
  EXPECT_EQ(values[0], 0.0f);
  EXPECT_EQ(values[1], 0.0f);
}

TEST(TopKMask, KAtSizeKeepsEverything) {
  std::vector<float> values = {1.0f, -2.0f, 3.0f};
  std::vector<float> copy = values;
  keep_topk(copy, 3);
  EXPECT_EQ(copy, values);
}

TEST(TopKMask, KBeyondSizeKeepsEverything) {
  // topk_threshold rejects k > n; the mask clamps to min(k, n) instead.
  const std::vector<float> magnitudes = {0.5f, 0.0f, 2.0f};
  const Bitmap mask = topk_mask(magnitudes, 10);
  ASSERT_EQ(mask.size(), 3u);
  EXPECT_EQ(mask.count(), 3u);
}

TEST(TopKMask, EmptyInputGivesAnEmptyMask) {
  const std::vector<float> none;
  EXPECT_EQ(topk_mask(none, 0).size(), 0u);
  EXPECT_EQ(topk_mask(none, 4).size(), 0u);
}

TEST(TopKMask, ZerosAreKeptOnlyAsTiesInIndexOrder) {
  // Three non-zero magnitudes and k = 5: all three, then the two lowest
  // zero indices.
  const std::vector<float> magnitudes = {0.0f, 3.0f, 0.0f, 0.0f, 1.0f, 0.0f, 2.0f, 0.0f};
  const Bitmap mask = topk_mask(magnitudes, 5);
  const std::vector<bool> expected = {true, true, true, false, true, false, true, false};
  for (std::size_t i = 0; i < magnitudes.size(); ++i) EXPECT_EQ(mask.test(i), expected[i]) << i;
}

TEST(TopKMask, StrictlyLargerMagnitudesComeBeforeEarlierTies) {
  // Two levels interleaved; k falls inside the lower level, so every 2.0
  // survives wherever it sits and the 1.0s fill the rest from index 0.
  std::vector<float> magnitudes(20);
  for (std::size_t i = 0; i < magnitudes.size(); ++i) magnitudes[i] = i % 2 == 0 ? 1.0f : 2.0f;
  const Bitmap mask = topk_mask(magnitudes, 13);
  EXPECT_EQ(mask.count(), 13u);
  for (std::size_t i = 1; i < magnitudes.size(); i += 2) EXPECT_TRUE(mask.test(i)) << i;
  for (std::size_t i = 0; i < magnitudes.size(); i += 2) EXPECT_EQ(mask.test(i), i < 6) << i;
}

/// The exact-k rule stated directly: order the indices by magnitude,
/// largest first and ties by index (a stable sort), and keep the first k.
Bitmap stable_sort_mask(std::span<const float> magnitudes, std::size_t k) {
  std::vector<std::size_t> order(magnitudes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return magnitudes[a] > magnitudes[b];
  });
  Bitmap mask(magnitudes.size());
  for (std::size_t i = 0; i < std::min(k, order.size()); ++i) mask.set(order[i]);
  return mask;
}

struct TopKMaskCase {
  std::size_t n;
  std::size_t k;
  int levels;  ///< 0: continuous magnitudes; L: drawn from {0, 0.25, ..., (L-1)/4}
};

// Names each case by its fields rather than its raw bytes, padding
// included.
void PrintTo(const TopKMaskCase& c, std::ostream* os) {
  *os << "n=" << c.n << ",k=" << c.k << ",levels=" << c.levels;
}

class TopKMaskParam : public ::testing::TestWithParam<TopKMaskCase> {};

TEST_P(TopKMaskParam, MatchesStableSortReference) {
  const TopKMaskCase c = GetParam();
  std::vector<float> magnitudes = random_magnitudes(c.n, c.n * 17 + c.k);
  if (c.levels > 0) {
    util::Rng rng(c.n + c.k);
    for (float& m : magnitudes) {
      m = 0.25f * static_cast<float>(rng.uniform_index(static_cast<std::size_t>(c.levels)));
    }
  }
  const Bitmap mask = topk_mask(magnitudes, c.k);
  EXPECT_EQ(mask.count(), std::min(c.k, c.n));
  EXPECT_TRUE(mask == stable_sort_mask(magnitudes, c.k));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TopKMaskParam,
    ::testing::Values(TopKMaskCase{1, 1, 0}, TopKMaskCase{2, 1, 1}, TopKMaskCase{63, 20, 3},
                      TopKMaskCase{64, 64, 2}, TopKMaskCase{65, 13, 0},
                      TopKMaskCase{1000, 150, 4}, TopKMaskCase{1000, 999, 2},
                      TopKMaskCase{4096, 1, 8}, TopKMaskCase{100003, 15000, 0},
                      TopKMaskCase{100003, 15000, 16}));

// ---------------------------------------------------------------------------
// Bitmap

TEST(Bitmap, SetTestClear) {
  Bitmap b(130);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.clear(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitmap, RankCountsPrecedingSetBits) {
  Bitmap b(200);
  for (std::size_t i = 0; i < 200; i += 3) b.set(i);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(b.rank(i), expected) << i;
    if (i % 3 == 0) ++expected;
  }
}

TEST(Bitmap, ByteSizeIsWordGranular) {
  EXPECT_EQ(Bitmap(1).byte_size(), 8u);
  EXPECT_EQ(Bitmap(64).byte_size(), 8u);
  EXPECT_EQ(Bitmap(65).byte_size(), 16u);
}

// ---------------------------------------------------------------------------
// Packing

std::vector<float> sparse_vector(std::size_t n, double density, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n, 0.0f);
  for (float& x : v) {
    if (rng.bernoulli(density)) x = static_cast<float>(rng.normal());
  }
  return v;
}

class PackParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackParam, ScanPackMatchesSerialPack) {
  parallel::ThreadPool pool(4);
  const auto sparse = sparse_vector(GetParam(), 0.15, GetParam() + 3);
  const auto expected = pack_serial<float>(sparse);
  const auto packed = pack_scan<float>(pool, sparse);
  EXPECT_EQ(packed, expected);
}

TEST_P(PackParam, BitmapPackMatchesSerialPack) {
  parallel::ThreadPool pool(4);
  const auto sparse = sparse_vector(GetParam(), 0.15, GetParam() + 7);
  const auto expected = pack_serial<float>(sparse);
  const Bitmap mask = nonzero_bitmap<float>(std::span<const float>(sparse));
  const auto packed = pack_bitmap<float>(pool, sparse, mask);
  EXPECT_EQ(packed, expected);
}

TEST_P(PackParam, UnpackInvertsPack) {
  parallel::ThreadPool pool(4);
  const auto sparse = sparse_vector(GetParam(), 0.15, GetParam() + 13);
  const Bitmap mask = nonzero_bitmap<float>(std::span<const float>(sparse));
  const auto packed = pack_bitmap<float>(pool, sparse, mask);
  std::vector<float> restored(sparse.size());
  unpack_bitmap<float>(pool, packed, mask, restored);
  EXPECT_EQ(restored, sparse);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackParam,
                         ::testing::Values(1, 7, 63, 64, 65, 128, 1000, 4096, 100003));

TEST(Pack, PaperExampleFromSection32) {
  // sparse = [a, 0, b, 0, c, 0, 0] -> dense = [a, b, c]
  parallel::ThreadPool pool(2);
  std::vector<float> sparse = {1.5f, 0.0f, 2.5f, 0.0f, 3.5f, 0.0f, 0.0f};
  const auto dense = pack_scan<float>(pool, std::span<const float>(sparse));
  EXPECT_EQ(dense, (std::vector<float>{1.5f, 2.5f, 3.5f}));
}

TEST(Pack, AllZeroVectorPacksToEmpty) {
  parallel::ThreadPool pool(2);
  std::vector<float> zeros(1000, 0.0f);
  EXPECT_TRUE(pack_scan<float>(pool, std::span<const float>(zeros)).empty());
  const Bitmap mask = nonzero_bitmap<float>(std::span<const float>(zeros));
  EXPECT_TRUE(pack_bitmap<float>(pool, std::span<const float>(zeros), mask).empty());
}

TEST(Pack, FullyDenseVectorPacksToItself) {
  parallel::ThreadPool pool(2);
  std::vector<float> dense(100);
  std::iota(dense.begin(), dense.end(), 1.0f);
  const Bitmap mask = nonzero_bitmap<float>(std::span<const float>(dense));
  EXPECT_EQ(pack_bitmap<float>(pool, std::span<const float>(dense), mask), dense);
}

TEST(Pack, WorksForComplexElements) {
  parallel::ThreadPool pool(2);
  using cfloat = std::complex<float>;
  std::vector<cfloat> sparse = {{1, 2}, {0, 0}, {3, 0}, {0, 4}, {0, 0}};
  const Bitmap mask = nonzero_bitmap<cfloat>(std::span<const cfloat>(sparse));
  const auto packed = pack_bitmap<cfloat>(pool, sparse, mask);
  ASSERT_EQ(packed.size(), 3u);
  EXPECT_EQ(packed[0], cfloat(1, 2));
  EXPECT_EQ(packed[1], cfloat(3, 0));
  EXPECT_EQ(packed[2], cfloat(0, 4));
  std::vector<cfloat> restored(sparse.size());
  unpack_bitmap<cfloat>(pool, packed, mask, restored);
  EXPECT_EQ(restored, sparse);
}

TEST(Pack, BitmapPackIgnoresMaskedOutValues) {
  // pack_bitmap must honour the mask, not element values: a top-k mask may
  // drop non-zero elements.
  parallel::ThreadPool pool(2);
  std::vector<float> values = {1.0f, 2.0f, 3.0f};
  Bitmap mask(3);
  mask.set(1);
  const auto packed = pack_bitmap<float>(pool, std::span<const float>(values), mask);
  EXPECT_EQ(packed, std::vector<float>{2.0f});
}

TEST(Pack, UnpackRejectsInconsistentSizes) {
  parallel::ThreadPool pool(2);
  Bitmap mask(10);
  mask.set(0);
  std::vector<float> wrong_dense = {1.0f, 2.0f};  // mask has one set bit
  std::vector<float> out(10);
  EXPECT_THROW(unpack_bitmap<float>(pool, std::span<const float>(wrong_dense), mask, out),
               std::invalid_argument);
  std::vector<float> dense = {1.0f};
  std::vector<float> short_out(9);
  EXPECT_THROW(unpack_bitmap<float>(pool, std::span<const float>(dense), mask, short_out),
               std::invalid_argument);
}

TEST(Pack, MismatchedMaskSizeThrows) {
  parallel::ThreadPool pool(2);
  std::vector<float> values(8);
  Bitmap mask(9);
  EXPECT_THROW(pack_bitmap<float>(pool, std::span<const float>(values), mask),
               std::invalid_argument);
}

}  // namespace
}  // namespace fftgrad::sparse
