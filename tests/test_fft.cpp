#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "fftgrad/fft/fft.h"
#include "fftgrad/parallel/thread_pool.h"
#include "fftgrad/util/rng.h"

namespace fftgrad::fft {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// exp(-2*pi*i*t/n) for t < n, in double precision.
std::vector<std::complex<double>> unit_roots(std::size_t n) {
  std::vector<std::complex<double>> roots(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double angle = -2.0 * kPi * static_cast<double>(t) / static_cast<double>(n);
    roots[t] = std::complex<double>(std::cos(angle), std::sin(angle));
  }
  return roots;
}

/// O(n^2) reference DFT in double precision.
std::vector<std::complex<double>> reference_dft(std::span<const cfloat> in) {
  const std::size_t n = in.size();
  const auto roots = unit_roots(n);
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += std::complex<double>(in[j].real(), in[j].imag()) * roots[j * k % n];
    }
    out[k] = acc;
  }
  return out;
}

std::vector<cfloat> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<cfloat> signal(n);
  for (auto& v : signal) {
    v = cfloat(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  }
  return signal;
}

TEST(FftHelpers, PowerOfTwoPredicate) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1000));
}

TEST(FftHelpers, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
}

TEST(FftPlan, RejectsZeroSize) { EXPECT_THROW(FftPlan(0), std::invalid_argument); }

TEST(FftPlan, SizeOneIsIdentity) {
  FftPlan plan(1);
  std::vector<cfloat> in = {cfloat(3.5f, -1.0f)};
  std::vector<cfloat> out(1);
  plan.forward(in, out);
  EXPECT_FLOAT_EQ(out[0].real(), 3.5f);
  EXPECT_FLOAT_EQ(out[0].imag(), -1.0f);
}

TEST(FftPlan, KnownFourPointTransform) {
  // FFT of [1, 0, 0, 0] is all-ones.
  FftPlan plan(4);
  std::vector<cfloat> in = {cfloat(1, 0), cfloat(0, 0), cfloat(0, 0), cfloat(0, 0)};
  std::vector<cfloat> out(4);
  plan.forward(in, out);
  for (const cfloat& v : out) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-6f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-6f);
  }
}

class FftAgainstReference : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAgainstReference, ForwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  const auto signal = random_signal(n, 17 + n);
  FftPlan plan(n);
  std::vector<cfloat> out(n);
  plan.forward(signal, out);
  const auto expected = reference_dft(signal);
  // Error grows ~log n; scale tolerance with sqrt(n).
  const double tol = 1e-4 * std::sqrt(static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(out[k].real(), expected[k].real(), tol) << "bin " << k << " n=" << n;
    EXPECT_NEAR(out[k].imag(), expected[k].imag(), tol) << "bin " << k << " n=" << n;
  }
}

TEST_P(FftAgainstReference, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  const auto signal = random_signal(n, 99 + n);
  FftPlan plan(n);
  std::vector<cfloat> spectrum(n), recovered(n);
  plan.forward(signal, spectrum);
  plan.inverse(spectrum, recovered);
  const double tol = 1e-4 * std::sqrt(static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(recovered[i].real(), signal[i].real(), tol);
    EXPECT_NEAR(recovered[i].imag(), signal[i].imag(), tol);
  }
}

// Mix of power-of-two (natural-order kernel path) and arbitrary sizes
// (Bluestein path), including primes.
INSTANTIATE_TEST_SUITE_P(Sizes, FftAgainstReference,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 64, 100, 127, 128,
                                           240, 255, 256));

// Every power of two up to 2^12: odd log2 n adds a radix-2 stage to the
// radix-4 stages, even log2 n runs radix-4 stages only.
INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftAgainstReference,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                                           4096));

class RealFftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftRoundTrip, IrfftInvertsRfft) {
  const std::size_t n = GetParam();
  util::Rng rng(3 * n + 1);
  std::vector<float> signal(n);
  for (float& v : signal) v = static_cast<float>(rng.normal(0.0, 0.1));
  FftPlan plan(n);
  std::vector<cfloat> bins(plan.real_bins());
  plan.rfft(signal, bins);
  std::vector<float> recovered(n);
  plan.irfft(bins, recovered);
  const double tol = 1e-5 * std::sqrt(static_cast<double>(n)) + 1e-6;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(recovered[i], signal[i], tol) << "i=" << i << " n=" << n;
  }
}

// 333,834 (an MLP gradient, Bluestein half) and 15,013 (ResNetMini, odd
// prime) are the codec's real workload sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, RealFftRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 9, 17, 64, 100, 255, 256, 1000,
                                           4096, 10007, 15013, 333834));

class RealFftAgainstReference : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftAgainstReference, RfftMatchesNaiveDft) {
  const std::size_t n = GetParam();
  util::Rng rng(5 * n + 2);
  std::vector<float> signal(n);
  std::vector<cfloat> embedded(n);
  for (std::size_t i = 0; i < n; ++i) {
    signal[i] = static_cast<float>(rng.normal());
    embedded[i] = cfloat(signal[i], 0.0f);
  }
  FftPlan plan(n);
  std::vector<cfloat> bins(plan.real_bins());
  plan.rfft(signal, bins);
  const auto expected = reference_dft(embedded);
  const double tol = 1e-4 * std::sqrt(static_cast<double>(n));
  for (std::size_t k = 0; k < bins.size(); ++k) {
    EXPECT_NEAR(bins[k].real(), expected[k].real(), tol) << "bin " << k << " n=" << n;
    EXPECT_NEAR(bins[k].imag(), expected[k].imag(), tol) << "bin " << k << " n=" << n;
  }
}

// Even sizes run an n/2-point transform plus a split pass: 2 and 4 are the
// edge cases of the split, 64 has a power-of-two half, and 6, 12, 100, 202
// and 366 have a Bluestein half. Odd sizes 3 and 65 run the full-length path.
INSTANTIATE_TEST_SUITE_P(Sizes, RealFftAgainstReference,
                         ::testing::Values(2, 3, 4, 6, 12, 64, 65, 100, 202, 366));

class RealFftWorkloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftWorkloadSizes, SampledBinsMatchDirectSum) {
  // A round trip cannot catch a forward and an inverse transform that are
  // wrong in matching ways, so ~64 bins of each size the codec runs are
  // checked against a direct sum in double.
  const std::size_t n = GetParam();
  util::Rng rng(11 * n + 3);
  std::vector<float> signal(n);
  for (float& v : signal) v = static_cast<float>(rng.normal());
  FftPlan plan(n);
  std::vector<cfloat> bins(plan.real_bins());
  plan.rfft(signal, bins);

  const std::size_t last = plan.real_bins() - 1;
  std::vector<std::size_t> sampled = {0, 1, 2, n / 4, n / 4 + 1, last - 1, last};
  while (sampled.size() < 64) sampled.push_back(rng.uniform_index(plan.real_bins()));
  const auto roots = unit_roots(n);
  const double tol = 1e-4 * std::sqrt(static_cast<double>(n));
  for (const std::size_t k : sampled) {
    std::complex<double> expected = 0.0;
    for (std::size_t j = 0, t = 0; j < n; ++j) {
      expected += static_cast<double>(signal[j]) * roots[t];
      t += k;  // t = j*k mod n
      if (t >= n) t -= n;
    }
    EXPECT_NEAR(bins[k].real(), expected.real(), tol) << "bin " << k << " n=" << n;
    EXPECT_NEAR(bins[k].imag(), expected.imag(), tol) << "bin " << k << " n=" << n;
  }
}

// 333,834: the MLP gradient, a 166,917-point Bluestein half (m = 2^19).
// 131,074: a 65,537-point Bluestein half (m = 2^18) whose kernel starts
// with a radix-2 stage; like 333,834 it runs on the thread pool.
// 15,013: ResNetMini, a full-length Bluestein transform (m = 2^15).
// 6,154: the chunked codec's remainder chunk, a 3,077-point Bluestein half
// (m = 2^13). 65,536 and 2^20: natural-order halves of 2^15 and 2^19.
INSTANTIATE_TEST_SUITE_P(Sizes, RealFftWorkloadSizes,
                         ::testing::Values(333834, 131074, 15013, 6154, 65536, 1 << 20));

TEST(RealFft, BinCountIsHalfSpectrumPlusDc) {
  EXPECT_EQ(FftPlan(8).real_bins(), 5u);
  EXPECT_EQ(FftPlan(7).real_bins(), 4u);
  EXPECT_EQ(FftPlan(1).real_bins(), 1u);
}

TEST(RealFft, DcBinEqualsSum) {
  std::vector<float> signal = {1.0f, 2.0f, 3.0f, 4.0f};
  const auto bins = rfft(signal);
  EXPECT_NEAR(bins[0].real(), 10.0f, 1e-5f);
  EXPECT_NEAR(bins[0].imag(), 0.0f, 1e-5f);
}

TEST(RealFft, PureToneConcentratesInOneBin) {
  const std::size_t n = 64;
  std::vector<float> signal(n);
  for (std::size_t i = 0; i < n; ++i) {
    signal[i] = std::cos(2.0 * kPi * 5.0 * static_cast<double>(i) / static_cast<double>(n));
  }
  const auto bins = rfft(signal);
  for (std::size_t k = 0; k < bins.size(); ++k) {
    const float mag = std::abs(bins[k]);
    if (k == 5) {
      EXPECT_NEAR(mag, n / 2.0f, 1e-3f);
    } else {
      EXPECT_NEAR(mag, 0.0f, 1e-3f);
    }
  }
}

TEST(RealFft, ParsevalEnergyIsConserved) {
  const std::size_t n = 128;
  util::Rng rng(5);
  std::vector<float> signal(n);
  double time_energy = 0.0;
  for (float& v : signal) {
    v = static_cast<float>(rng.normal());
    time_energy += static_cast<double>(v) * v;
  }
  const auto bins = rfft(signal);
  double freq_energy = std::norm(bins[0]);
  for (std::size_t k = 1; k + 1 < bins.size(); ++k) freq_energy += 2.0 * std::norm(bins[k]);
  freq_energy += std::norm(bins.back());  // Nyquist (n even)
  freq_energy /= static_cast<double>(n);
  EXPECT_NEAR(freq_energy, time_energy, 1e-3 * time_energy);
}

TEST(FftPlan, InPlaceForwardMatchesOutOfPlace) {
  const std::size_t n = 256;
  auto signal = random_signal(n, 4);
  std::vector<cfloat> expected(n);
  FftPlan plan(n);
  plan.forward(signal, expected);
  plan.forward(signal, signal);  // in-place
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(signal[i].real(), expected[i].real());
    EXPECT_FLOAT_EQ(signal[i].imag(), expected[i].imag());
  }
}

TEST(FftPlan, LinearityHolds) {
  const std::size_t n = 100;  // Bluestein path
  const auto a = random_signal(n, 6);
  const auto b = random_signal(n, 7);
  std::vector<cfloat> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0f * a[i] + 3.0f * b[i];
  const auto fa = fft(a);
  const auto fb = fft(b);
  const auto fsum = fft(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const cfloat expected = 2.0f * fa[k] + 3.0f * fb[k];
    EXPECT_NEAR(fsum[k].real(), expected.real(), 1e-3f);
    EXPECT_NEAR(fsum[k].imag(), expected.imag(), 1e-3f);
  }
}

TEST(FftPlan, RejectsWrongSpanLengths) {
  FftPlan plan(8);
  std::vector<cfloat> bad(7), out(8);
  EXPECT_THROW(plan.forward(bad, out), std::invalid_argument);
  std::vector<float> real_in(8);
  std::vector<cfloat> bad_bins(4);
  EXPECT_THROW(plan.rfft(real_in, bad_bins), std::invalid_argument);
}

TEST(FftPlan, IrfftProjectsNonHermitianDcToReal) {
  // A deliberately inconsistent DC bin (imaginary part) must not corrupt
  // the output: irfft projects DC/Nyquist to real, as a real signal needs.
  FftPlan plan(4);
  std::vector<cfloat> bins = {cfloat(4, 99), cfloat(0, 0), cfloat(0, 99)};
  std::vector<float> out(4);
  plan.irfft(bins, out);
  for (float v : out) EXPECT_NEAR(v, 1.0f, 1e-5f);

  // n = 12 takes the split pass, which handles bins 0 and n/2 apart from
  // the rest. DC 12 and Nyquist 12 encode 1 + (-1)^i; their imaginary
  // parts must be dropped.
  FftPlan plan12(12);
  std::vector<cfloat> bins12(plan12.real_bins(), cfloat(0, 0));
  bins12.front() = cfloat(12, 99);
  bins12.back() = cfloat(12, -99);
  std::vector<float> out12(12);
  plan12.irfft(bins12, out12);
  for (std::size_t i = 0; i < out12.size(); ++i) {
    EXPECT_NEAR(out12[i], i % 2 == 0 ? 2.0f : 0.0f, 1e-5f) << i;
  }
}

TEST(FftPlan, SharedConstPlanIsThreadSafe) {
  // A plan keeps no scratch between calls, so one const plan serves any
  // number of threads, including a race on forward()'s first-use build.
  constexpr int kThreads = 4;
  for (const std::size_t n : {std::size_t{333834}, std::size_t{65536}}) {
    util::Rng rng(n);
    std::vector<float> signal(n);
    std::vector<cfloat> embedded(n);
    for (std::size_t i = 0; i < n; ++i) {
      signal[i] = static_cast<float>(rng.normal(0.0, 0.1));
      embedded[i] = cfloat(signal[i], 0.0f);
    }
    const FftPlan reference(n);
    std::vector<cfloat> bins(reference.real_bins()), spectrum(n);
    std::vector<float> recovered(n);
    reference.rfft(signal, bins);
    reference.irfft(bins, recovered);
    reference.forward(embedded, spectrum);

    const FftPlan shared(n);
    std::vector<std::vector<cfloat>> thread_bins(kThreads), thread_spectrum(kThreads);
    std::vector<std::vector<float>> thread_recovered(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        thread_bins[t].resize(shared.real_bins());
        thread_recovered[t].resize(n);
        thread_spectrum[t].resize(n);
        shared.rfft(signal, thread_bins[t]);
        shared.irfft(thread_bins[t], thread_recovered[t]);
        shared.forward(embedded, thread_spectrum[t]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(std::memcmp(thread_bins[t].data(), bins.data(), bins.size() * sizeof(cfloat)), 0)
          << "n=" << n << " thread " << t;
      EXPECT_EQ(std::memcmp(thread_recovered[t].data(), recovered.data(), n * sizeof(float)), 0)
          << "n=" << n << " thread " << t;
      EXPECT_EQ(std::memcmp(thread_spectrum[t].data(), spectrum.data(), n * sizeof(cfloat)), 0)
          << "n=" << n << " thread " << t;
    }
  }
}

TEST(FftPlan, PooledScheduleMatchesInlineBitForBit) {
  // Bluestein kernels of 2^16 points and more split their pieces across
  // ThreadPool::global(); called from one of its tasks, a plan runs the
  // same pieces inline. Both schedules must give the same bytes. 333,834:
  // a radix-4 first stage (kernel 2^18). 131,074: a 65,537-point half with
  // a radix-2 first stage (kernel 2^17). 40,001: odd, full length, kernel
  // exactly 2^16.
  struct Outputs {
    std::vector<cfloat> bins, spectrum, restored;
    std::vector<float> recovered;
  };
  for (const std::size_t n : {std::size_t{333834}, std::size_t{131074}, std::size_t{40001}}) {
    util::Rng rng(n + 1);
    std::vector<float> signal(n);
    std::vector<cfloat> complex_signal(n);
    for (std::size_t i = 0; i < n; ++i) {
      signal[i] = static_cast<float>(rng.normal());
      complex_signal[i] = cfloat(signal[i], static_cast<float>(rng.normal()));
    }
    const FftPlan plan(n);
    const auto run = [&] {
      Outputs o{std::vector<cfloat>(plan.real_bins()), std::vector<cfloat>(n),
                std::vector<cfloat>(n), std::vector<float>(n)};
      plan.rfft(signal, o.bins);
      plan.irfft(o.bins, o.recovered);
      plan.forward(complex_signal, o.spectrum);
      plan.inverse(o.spectrum, o.restored);
      return o;
    };
    const Outputs pooled = run();
    Outputs inline_run;
    parallel::ThreadPool::global().submit([&] { inline_run = run(); }).get();
    const auto same = [](const auto& a, const auto& b) {
      return std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
    };
    EXPECT_TRUE(same(pooled.bins, inline_run.bins)) << "rfft n=" << n;
    EXPECT_TRUE(same(pooled.recovered, inline_run.recovered)) << "irfft n=" << n;
    EXPECT_TRUE(same(pooled.spectrum, inline_run.spectrum)) << "forward n=" << n;
    EXPECT_TRUE(same(pooled.restored, inline_run.restored)) << "inverse n=" << n;
  }
}

}  // namespace
}  // namespace fftgrad::fft
