#include "fftgrad/fft/fft.h"

#include <cmath>
#include <cstdint>
#include <mutex>
#include <stdexcept>

namespace fftgrad::fft {
namespace {

constexpr double kPi = 3.14159265358979323846;

cfloat unit_phasor(double angle) {
  return cfloat(static_cast<float>(std::cos(angle)), static_cast<float>(std::sin(angle)));
}

/// a * b (a * conj(b) when kConj), written out in float. The library's
/// complex operator* keeps a NaN-recovery call that blocks vectorisation.
template <bool kConj>
inline cfloat mul(cfloat a, cfloat b) {
  const float br = b.real();
  const float bi = kConj ? -b.imag() : b.imag();
  return cfloat(a.real() * br - a.imag() * bi, a.real() * bi + a.imag() * br);
}

/// Iterative radix-2 Cooley-Tukey over a power-of-two length. Twiddles are
/// computed in double and stored as float; the per-stage tables are laid
/// out so the inner loop walks them contiguously.
class Radix2 {
 public:
  explicit Radix2(std::size_t n) : n_(n) {
    if (!is_power_of_two(n)) throw std::logic_error("Radix2: n must be a power of two");
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < n) ++log2n;

    bitrev_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t rev = 0;
      for (std::size_t b = 0; b < log2n; ++b) {
        if (i & (std::size_t{1} << b)) rev |= std::uint32_t{1} << (log2n - 1 - b);
      }
      bitrev_[i] = rev;
    }

    // Forward twiddles for each butterfly half-length: w_m^j = exp(-i*pi*j/half).
    twiddles_.resize(n > 1 ? n - 1 : 0);
    std::size_t at = 0;
    for (std::size_t half = 1; half < n; half <<= 1) {
      for (std::size_t j = 0; j < half; ++j) {
        twiddles_[at++] = unit_phasor(-kPi * static_cast<double>(j) / static_cast<double>(half));
      }
    }
  }

  std::size_t size() const { return n_; }

  /// In-place transform of `data` (length n_). `invert` conjugates the
  /// twiddles; normalization is the caller's responsibility.
  void transform(cfloat* data, bool invert) const {
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t j = bitrev_[i];
      if (i < j) std::swap(data[i], data[j]);
    }
    if (invert) {
      butterflies<true>(data);
    } else {
      butterflies<false>(data);
    }
  }

 private:
  template <bool kInvert>
  void butterflies(cfloat* data) const {
    std::size_t at = 0;
    for (std::size_t half = 1; half < n_; half <<= 1) {
      const cfloat* w = &twiddles_[at];
      const std::size_t step = half << 1;
      for (std::size_t base = 0; base < n_; base += step) {
        cfloat* lo = data + base;
        cfloat* hi = lo + half;
        for (std::size_t j = 0; j < half; ++j) {
          const cfloat t = mul<kInvert>(hi[j], w[j]);
          const cfloat a = lo[j];
          hi[j] = cfloat(a.real() - t.real(), a.imag() - t.imag());
          lo[j] = cfloat(a.real() + t.real(), a.imag() + t.imag());
        }
      }
      at += half;
    }
  }

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;
  std::vector<cfloat> twiddles_;
};

/// Complex transform of one fixed length: radix-2 for powers of two,
/// Bluestein's chirp-z on a padded radix-2 plan otherwise.
class ComplexPlan {
 public:
  explicit ComplexPlan(std::size_t n) : n_(n) {
    if (is_power_of_two(n)) {
      radix2_ = std::make_unique<Radix2>(n);
      return;
    }
    const std::size_t m = next_power_of_two(2 * n - 1);
    padded_ = std::make_unique<Radix2>(m);
    chirp_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      // j^2 mod 2n keeps the angle argument small for large n.
      const std::size_t j2 = (static_cast<unsigned long long>(j) * j) % (2 * n);
      chirp_[j] = unit_phasor(-kPi * static_cast<double>(j2) / static_cast<double>(n));
    }
    std::vector<cfloat> filter(m, cfloat(0.0f, 0.0f));
    filter[0] = std::conj(chirp_[0]);
    for (std::size_t j = 1; j < n; ++j) {
      filter[j] = std::conj(chirp_[j]);
      filter[m - j] = std::conj(chirp_[j]);
    }
    padded_->transform(filter.data(), /*invert=*/false);
    // Fold the padded inverse's 1/m into the filter once, here.
    const float scale = 1.0f / static_cast<float>(m);
    for (cfloat& v : filter) v = cfloat(v.real() * scale, v.imag() * scale);
    filter_fft_ = std::move(filter);
  }

  /// out = DFT(in), or the 1/n-normalized inverse DFT when `invert`.
  /// in.data() == out.data() is allowed.
  void execute(std::span<const cfloat> in, std::span<cfloat> out, bool invert) const {
    if (radix2_) {
      if (out.data() != in.data()) std::copy(in.begin(), in.end(), out.begin());
      radix2_->transform(out.data(), invert);
      if (invert) {
        const float scale = 1.0f / static_cast<float>(n_);
        for (cfloat& v : out) v = cfloat(v.real() * scale, v.imag() * scale);
      }
    } else if (invert) {
      bluestein<true>(in, out);
    } else {
      bluestein<false>(in, out);
    }
  }

 private:
  /// The padded buffer is allocated per call so a const plan can be shared
  /// across threads without any scratch held between calls.
  template <bool kInvert>
  void bluestein(std::span<const cfloat> in, std::span<cfloat> out) const {
    const std::size_t m = padded_->size();
    std::vector<cfloat> a(m, cfloat(0.0f, 0.0f));
    for (std::size_t j = 0; j < n_; ++j) a[j] = mul<kInvert>(in[j], chirp_[j]);
    padded_->transform(a.data(), /*invert=*/false);
    // The chirp filter kernel is an even sequence, so the FFT of its
    // conjugate (the inverse-transform filter) equals conj(filter_fft).
    for (std::size_t j = 0; j < m; ++j) a[j] = mul<kInvert>(a[j], filter_fft_[j]);
    padded_->transform(a.data(), /*invert=*/true);
    const float scale = kInvert ? 1.0f / static_cast<float>(n_) : 1.0f;
    for (std::size_t j = 0; j < n_; ++j) {
      const cfloat v = mul<kInvert>(a[j], chirp_[j]);
      out[j] = cfloat(v.real() * scale, v.imag() * scale);
    }
  }

  std::size_t n_;
  std::unique_ptr<Radix2> radix2_;
  // Bluestein path: chirp c[j] = exp(-i*pi*j^2/n), padded length m >= 2n-1,
  // and the FFT of the (conjugate) chirp filter, prescaled by 1/m.
  std::unique_ptr<Radix2> padded_;
  std::vector<cfloat> chirp_;       // length n
  std::vector<cfloat> filter_fft_;  // length m
};

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

struct FftPlan::Impl {
  std::size_t n;
  // Even n: real transforms run on the n/2-point plan plus a split pass
  // with split[k] = exp(-2*pi*i*k/n), k <= n/4.
  std::unique_ptr<ComplexPlan> half;
  std::vector<cfloat> split;
  // The n-point plan behind forward()/inverse() (and odd-n real transforms).
  // Even-n plans build it on first use, so real-only callers never pay for it.
  std::once_flag full_once;
  std::unique_ptr<ComplexPlan> full_plan;

  explicit Impl(std::size_t size) : n(size) {
    if (n == 0) throw std::invalid_argument("FftPlan: size must be >= 1");
    if (n % 2 != 0) {
      full();
      return;
    }
    const std::size_t h = n / 2;
    half = std::make_unique<ComplexPlan>(h);
    split.resize(h / 2 + 1);
    for (std::size_t k = 0; k < split.size(); ++k) {
      split[k] = unit_phasor(-2.0 * kPi * static_cast<double>(k) / static_cast<double>(n));
    }
  }

  const ComplexPlan& full() {
    std::call_once(full_once, [this] { full_plan = std::make_unique<ComplexPlan>(n); });
    return *full_plan;
  }

  void execute(std::span<const cfloat> in, std::span<cfloat> out, bool invert) {
    if (in.size() != n || out.size() != n) throw std::invalid_argument("FftPlan: bad span length");
    full().execute(in, out, invert);
  }

  /// Even n. z[j] = x[2j] + i*x[2j+1] has the h = n/2 point spectrum Z, and
  /// with A = Z[k], B = conj(Z[h-k]) the real spectrum is
  ///   X[k] = E + W^k * O,  E = (A + B)/2,  O = -i(A - B)/2,  W = exp(-2*pi*i/n)
  /// and X[h-k] = conj(E - W^k * O), so each pass handles bins k and h-k.
  void rfft_even(std::span<const float> in, std::span<cfloat> out) const {
    const std::size_t h = n / 2;
    const std::span<cfloat> z = out.first(h);
    for (std::size_t j = 0; j < h; ++j) z[j] = cfloat(in[2 * j], in[2 * j + 1]);
    half->execute(z, z, /*invert=*/false);
    const cfloat z0 = out[0];
    out[0] = cfloat(z0.real() + z0.imag(), 0.0f);
    out[h] = cfloat(z0.real() - z0.imag(), 0.0f);
    for (std::size_t k = 1; 2 * k < h; ++k) {
      const cfloat a = out[k];
      const cfloat b = std::conj(out[h - k]);
      const cfloat e(0.5f * (a.real() + b.real()), 0.5f * (a.imag() + b.imag()));
      const cfloat o(0.5f * (a.imag() - b.imag()), 0.5f * (b.real() - a.real()));
      const cfloat t = mul<false>(o, split[k]);
      out[k] = cfloat(e.real() + t.real(), e.imag() + t.imag());
      out[h - k] = cfloat(e.real() - t.real(), t.imag() - e.imag());
    }
    // k = h/2 pairs with itself: E = Re Z, O = Im Z, W^k = -i, so X = conj(Z).
    if (h % 2 == 0 && h >= 2) out[h / 2] = std::conj(out[h / 2]);
  }

  /// Even n: the exact mirror of rfft_even. With D = (X[k] - conj(X[h-k]))/2,
  /// E = (X[k] + conj(X[h-k]))/2 and O = conj(W^k) * D, Z[k] = E + i*O and
  /// Z[h-k] = conj(E) + i*conj(O). Only the real parts of X[0] and X[h] are
  /// read, which projects them to the real values a real signal needs.
  void irfft_even(std::span<const cfloat> in, std::span<float> out) const {
    const std::size_t h = n / 2;
    std::vector<cfloat> z(h);
    const float dc = in[0].real();
    const float nyquist = in[h].real();
    z[0] = cfloat(0.5f * (dc + nyquist), 0.5f * (dc - nyquist));
    for (std::size_t k = 1; 2 * k < h; ++k) {
      const cfloat x = in[k];
      const cfloat y = std::conj(in[h - k]);
      const cfloat e(0.5f * (x.real() + y.real()), 0.5f * (x.imag() + y.imag()));
      const cfloat d(0.5f * (x.real() - y.real()), 0.5f * (x.imag() - y.imag()));
      const cfloat o = mul<true>(d, split[k]);
      z[k] = cfloat(e.real() - o.imag(), e.imag() + o.real());
      z[h - k] = cfloat(e.real() + o.imag(), o.real() - e.imag());
    }
    if (h % 2 == 0 && h >= 2) z[h / 2] = std::conj(in[h / 2]);
    half->execute(z, z, /*invert=*/true);
    for (std::size_t j = 0; j < h; ++j) {
      out[2 * j] = z[j].real();
      out[2 * j + 1] = z[j].imag();
    }
  }
};

FftPlan::FftPlan(std::size_t n) : impl_(std::make_unique<Impl>(n)) {}
FftPlan::~FftPlan() = default;
FftPlan::FftPlan(FftPlan&&) noexcept = default;
FftPlan& FftPlan::operator=(FftPlan&&) noexcept = default;

std::size_t FftPlan::size() const { return impl_->n; }

void FftPlan::forward(std::span<const cfloat> in, std::span<cfloat> out) const {
  impl_->execute(in, out, /*invert=*/false);
}

void FftPlan::inverse(std::span<const cfloat> in, std::span<cfloat> out) const {
  impl_->execute(in, out, /*invert=*/true);
}

void FftPlan::rfft(std::span<const float> in, std::span<cfloat> out) const {
  const std::size_t n = impl_->n;
  if (in.size() != n) throw std::invalid_argument("rfft: input length mismatch");
  if (out.size() != real_bins()) throw std::invalid_argument("rfft: output length mismatch");
  if (n % 2 == 0) {
    impl_->rfft_even(in, out);
    return;
  }
  std::vector<cfloat> buf(n);
  for (std::size_t i = 0; i < n; ++i) buf[i] = cfloat(in[i], 0.0f);
  impl_->full().execute(buf, buf, /*invert=*/false);
  std::copy(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(real_bins()), out.begin());
}

void FftPlan::irfft(std::span<const cfloat> in, std::span<float> out) const {
  const std::size_t n = impl_->n;
  if (in.size() != real_bins()) throw std::invalid_argument("irfft: input length mismatch");
  if (out.size() != n) throw std::invalid_argument("irfft: output length mismatch");
  if (n % 2 == 0) {
    impl_->irfft_even(in, out);
    return;
  }
  std::vector<cfloat> spectrum(n);
  // The DC bin must be real for a real signal. Rather than trusting the
  // caller we project it.
  spectrum[0] = cfloat(in[0].real(), 0.0f);
  for (std::size_t k = 1; k < real_bins(); ++k) spectrum[k] = in[k];
  for (std::size_t k = real_bins(); k < n; ++k) spectrum[k] = std::conj(spectrum[n - k]);
  impl_->full().execute(spectrum, spectrum, /*invert=*/true);
  for (std::size_t i = 0; i < n; ++i) out[i] = spectrum[i].real();
}

std::vector<cfloat> fft(std::span<const cfloat> in) {
  std::vector<cfloat> out(in.size());
  FftPlan(in.size()).forward(in, out);
  return out;
}

std::vector<cfloat> ifft(std::span<const cfloat> in) {
  std::vector<cfloat> out(in.size());
  FftPlan(in.size()).inverse(in, out);
  return out;
}

std::vector<cfloat> rfft(std::span<const float> in) {
  FftPlan plan(in.size());
  std::vector<cfloat> out(plan.real_bins());
  plan.rfft(in, out);
  return out;
}

std::vector<float> irfft(std::span<const cfloat> bins, std::size_t n) {
  FftPlan plan(n);
  std::vector<float> out(n);
  plan.irfft(bins, out);
  return out;
}

}  // namespace fftgrad::fft
