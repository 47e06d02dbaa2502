#include "fftgrad/fft/fft.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
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

/// Appends exp(-2*pi*i*r*j/len) for j < count to `table` as `count` real
/// parts followed by `count` imaginary parts.
void append_twiddles(std::vector<float>& table, std::size_t len, std::size_t r,
                     std::size_t count) {
  const std::size_t at = table.size();
  table.resize(at + 2 * count);
  for (std::size_t j = 0; j < count; ++j) {
    const cfloat w = unit_phasor(-2.0 * kPi * static_cast<double>(r * j % len) /
                                 static_cast<double>(len));
    table[at + j] = w.real();
    table[at + count + j] = w.imag();
  }
}

// The butterflies below take every array as a separate __restrict
// parameter: GCC vectorises these loops only when the no-alias promise
// sits on the parameters themselves.

/// Radix-2 DIF butterflies: (a, b) -> (a + b, (a - b) * w[j]).
void dif2(float* __restrict r0, float* __restrict i0, float* __restrict r1,
          float* __restrict i1, const float* __restrict wr, const float* __restrict wi,
          std::size_t h) {
  for (std::size_t j = 0; j < h; ++j) {
    const float ar = r0[j], ai = i0[j], br = r1[j], bi = i1[j];
    r0[j] = ar + br;
    i0[j] = ai + bi;
    const cfloat d = mul<false>(cfloat(ar - br, ai - bi), cfloat(wr[j], wi[j]));
    r1[j] = d.real();
    i1[j] = d.imag();
  }
}

/// Transpose of dif2: (a, b) -> (a + b * w[j], a - b * w[j]), with conj(w)
/// when kConj.
template <bool kConj>
void dit2(float* __restrict r0, float* __restrict i0, float* __restrict r1,
          float* __restrict i1, const float* __restrict wr, const float* __restrict wi,
          std::size_t h) {
  for (std::size_t j = 0; j < h; ++j) {
    const cfloat t = mul<kConj>(cfloat(r1[j], i1[j]), cfloat(wr[j], wi[j]));
    const float ar = r0[j], ai = i0[j];
    r0[j] = ar + t.real();
    i0[j] = ai + t.imag();
    r1[j] = ar - t.real();
    i1[j] = ai - t.imag();
  }
}

/// Radix-4 DIF butterflies over the four quarters x0..x3 of a block of
/// length 4q. u_r = sum_l x_l * (-i)^(l*r), twiddled by w^(r*j), is stored
/// in quarter 0, 2, 1, 3 for r = 0, 1, 2, 3. `w` holds w^j, w^2j and w^3j,
/// each as q real parts then q imaginary parts.
void dif4(float* __restrict r0, float* __restrict i0, float* __restrict r1,
          float* __restrict i1, float* __restrict r2, float* __restrict i2,
          float* __restrict r3, float* __restrict i3, const float* __restrict w,
          std::size_t q) {
  for (std::size_t j = 0; j < q; ++j) {
    const float t0r = r0[j] + r2[j], t0i = i0[j] + i2[j];
    const float t1r = r0[j] - r2[j], t1i = i0[j] - i2[j];
    const float t2r = r1[j] + r3[j], t2i = i1[j] + i3[j];
    const float t3r = r1[j] - r3[j], t3i = i1[j] - i3[j];
    r0[j] = t0r + t2r;
    i0[j] = t0i + t2i;
    const cfloat u1 = mul<false>(cfloat(t1r + t3i, t1i - t3r), cfloat(w[j], w[q + j]));
    const cfloat u2 = mul<false>(cfloat(t0r - t2r, t0i - t2i), cfloat(w[2 * q + j], w[3 * q + j]));
    const cfloat u3 = mul<false>(cfloat(t1r - t3i, t1i + t3r), cfloat(w[4 * q + j], w[5 * q + j]));
    r1[j] = u2.real();
    i1[j] = u2.imag();
    r2[j] = u1.real();
    i2[j] = u1.imag();
    r3[j] = u3.real();
    i3[j] = u3.imag();
  }
}

/// Transpose of dif4 (conjugate twiddles and +i in place of -i when kConj):
/// v_r is read from quarter 0, 2, 1, 3 and twiddled, then quarter l gets
/// sum_r v_r * (-i)^(l*r).
template <bool kConj>
void dit4(float* __restrict r0, float* __restrict i0, float* __restrict r1,
          float* __restrict i1, float* __restrict r2, float* __restrict i2,
          float* __restrict r3, float* __restrict i3, const float* __restrict w,
          std::size_t q) {
  for (std::size_t j = 0; j < q; ++j) {
    const cfloat v1 = mul<kConj>(cfloat(r2[j], i2[j]), cfloat(w[j], w[q + j]));
    const cfloat v2 = mul<kConj>(cfloat(r1[j], i1[j]), cfloat(w[2 * q + j], w[3 * q + j]));
    const cfloat v3 = mul<kConj>(cfloat(r3[j], i3[j]), cfloat(w[4 * q + j], w[5 * q + j]));
    const float er = r0[j] + v2.real(), ei = i0[j] + v2.imag();
    const float fr = r0[j] - v2.real(), fi = i0[j] - v2.imag();
    const float gr = v1.real() + v3.real(), gi = v1.imag() + v3.imag();
    // s * (v1 - v3) with s = -i, or +i when kConj.
    const float sr = kConj ? v3.imag() - v1.imag() : v1.imag() - v3.imag();
    const float si = kConj ? v1.real() - v3.real() : v3.real() - v1.real();
    r0[j] = er + gr;
    i0[j] = ei + gi;
    r1[j] = fr + sr;
    i1[j] = fi + si;
    r2[j] = er - gr;
    i2[j] = ei - gi;
    r3[j] = fr - sr;
    i3[j] = fi - si;
  }
}

/// dif4 for blocks of length 4, where every twiddle is 1, over all m/4
/// blocks in one loop.
void dif4_quads(float* __restrict re, float* __restrict im, std::size_t m) {
  for (std::size_t at = 0; at < m; at += 4) {
    float* r = re + at;
    float* i = im + at;
    const float t0r = r[0] + r[2], t0i = i[0] + i[2];
    const float t1r = r[0] - r[2], t1i = i[0] - i[2];
    const float t2r = r[1] + r[3], t2i = i[1] + i[3];
    const float t3r = r[1] - r[3], t3i = i[1] - i[3];
    r[0] = t0r + t2r;
    i[0] = t0i + t2i;
    r[1] = t0r - t2r;
    i[1] = t0i - t2i;
    r[2] = t1r + t3i;
    i[2] = t1i - t3r;
    r[3] = t1r - t3i;
    i[3] = t1i + t3r;
  }
}

/// dit4 for blocks of length 4, where every twiddle is 1.
template <bool kConj>
void dit4_quads(float* __restrict re, float* __restrict im, std::size_t m) {
  for (std::size_t at = 0; at < m; at += 4) {
    float* r = re + at;
    float* i = im + at;
    const float er = r[0] + r[1], ei = i[0] + i[1];
    const float fr = r[0] - r[1], fi = i[0] - i[1];
    const float gr = r[2] + r[3], gi = i[2] + i[3];
    const float sr = kConj ? i[3] - i[2] : i[2] - i[3];
    const float si = kConj ? r[2] - r[3] : r[3] - r[2];
    r[0] = er + gr;
    i[0] = ei + gi;
    r[1] = fr + sr;
    i[1] = fi + si;
    r[2] = er - gr;
    i[2] = ei - gi;
    r[3] = fr - sr;
    i[3] = fi - si;
  }
}

/// Power-of-two FFT over split-complex data (separate re and im arrays):
/// one radix-2 stage when log2 m is odd, then radix-4 stages. dif() is a
/// decimation-in-frequency pass from natural to bit-reversed order; dit()
/// is its exact transpose, from bit-reversed back to natural order. (The
/// 0, 2, 1, 3 quarter order of each radix-4 stage is what makes the mixed
/// digit order plain bit reversal.) Twiddles are computed in double and
/// stored as float, one contiguous table per stage.
class Radix4 {
 public:
  explicit Radix4(std::size_t m) : m_(m), radix2_(m >= 2 && (std::countr_zero(m) % 2 == 1)) {
    std::size_t len = m;
    if (radix2_) {
      append_twiddles(twiddles_, len, 1, len / 2);
      len /= 2;
    }
    for (; len >= 16; len /= 4) {
      for (std::size_t r = 1; r <= 3; ++r) append_twiddles(twiddles_, len, r, len / 4);
    }
  }

  std::size_t size() const { return m_; }

  /// Forward DFT of natural-order data, leaving X[k] at index bitrev(k).
  void dif(float* re, float* im) const {
    const float* w = twiddles_.data();
    std::size_t len = m_;
    if (radix2_) {
      const std::size_t h = len / 2;
      dif2(re, im, re + h, im + h, w, w + h, h);
      w += len;
      len = h;
    }
    for (; len >= 16; len /= 4) {
      const std::size_t q = len / 4;
      for (std::size_t at = 0; at < m_; at += len) {
        float* r = re + at;
        float* i = im + at;
        dif4(r, i, r + q, i + q, r + 2 * q, i + 2 * q, r + 3 * q, i + 3 * q, w, q);
      }
      w += 6 * q;
    }
    if (len == 4) dif4_quads(re, im, m_);
  }

  /// DFT (conjugate-twiddle, unnormalized inverse DFT when kConj) of data
  /// whose element k sits at index bitrev(k); the result is in natural order.
  template <bool kConj>
  void dit(float* re, float* im) const {
    const std::size_t top = radix2_ ? m_ / 2 : m_;
    if (top >= 4) dit4_quads<kConj>(re, im, m_);
    const float* w = twiddles_.data() + twiddles_.size();
    for (std::size_t len = 16; len <= top; len *= 4) {
      const std::size_t q = len / 4;
      w -= 6 * q;
      for (std::size_t at = 0; at < m_; at += len) {
        float* r = re + at;
        float* i = im + at;
        dit4<kConj>(r, i, r + q, i + q, r + 2 * q, i + 2 * q, r + 3 * q, i + 3 * q, w, q);
      }
    }
    if (radix2_) {
      const std::size_t h = m_ / 2;
      w -= m_;
      dit2<kConj>(re, im, re + h, im + h, w, w + h, h);
    }
  }

 private:
  std::size_t m_;
  bool radix2_;
  std::vector<float> twiddles_;
};

/// Complex transform of one fixed length. A power of two runs the kernel
/// directly after a bit-reversed gather; any other length runs Bluestein's
/// chirp-z convolution on a padded length m = 2h >= 2n - 1.
class ComplexPlan {
 public:
  explicit ComplexPlan(std::size_t n)
      : n_(n), kernel_(is_power_of_two(n) ? n : next_power_of_two(2 * n - 1) / 2) {
    if (is_power_of_two(n)) return;
    const std::size_t h = kernel_.size();
    const std::size_t m = 2 * h;
    chirp_.resize(2 * n);
    for (std::size_t j = 0; j < n; ++j) {
      // j^2 mod 2n keeps the angle argument small for large n.
      const std::size_t j2 = (static_cast<unsigned long long>(j) * j) % (2 * n);
      const cfloat c = unit_phasor(-kPi * static_cast<double>(j2) / static_cast<double>(n));
      chirp_[j] = c.real();
      chirp_[n + j] = c.imag();
    }
    // The leading radix-2 stage of the m-point transform: w^j, j < h.
    std::vector<float> lead;
    append_twiddles(lead, m, 1, h);

    // The conjugate chirp, wrapped to an even sequence of length m, and its
    // spectrum in the DIF's own bit-reversed order.
    filter_.assign(2 * m, 0.0f);
    float* fr = filter_.data();
    float* fi = fr + m;
    for (std::size_t j = 0; j < n; ++j) {
      fr[j] = chirp_[j];
      fi[j] = -chirp_[n + j];
      if (j > 0) {
        fr[m - j] = fr[j];
        fi[m - j] = fi[j];
      }
    }
    dif2(fr, fi, fr + h, fi + h, lead.data(), lead.data() + h, h);
    kernel_.dif(fr, fi);
    kernel_.dif(fr + h, fi + h);
    // Fold the padded inverse's 1/m into the filter once, here.
    const float scale = 1.0f / static_cast<float>(m);
    for (float& v : filter_) v *= scale;

    // Pruned, the leading stage only needs w^j for j < n.
    lead_.assign(lead.begin(), lead.begin() + static_cast<std::ptrdiff_t>(n));
    lead_.insert(lead_.end(), lead.begin() + static_cast<std::ptrdiff_t>(h),
                 lead.begin() + static_cast<std::ptrdiff_t>(h + n));
  }

  /// out = DFT(in), or the 1/n-normalized inverse DFT when `invert`.
  /// in.data() == out.data() is allowed.
  void execute(std::span<const cfloat> in, std::span<cfloat> out, bool invert) const {
    if (!chirp_.empty()) {
      if (invert) {
        bluestein<true>(in, out);
      } else {
        bluestein<false>(in, out);
      }
      return;
    }
    // Gather into bit-reversed split form, then one DIT pass.
    const auto buf = std::make_unique_for_overwrite<float[]>(2 * n_);
    float* re = buf.get();
    float* im = re + n_;
    for (std::size_t i = 0, rev = 0; i < n_; ++i) {
      re[i] = in[rev].real();
      im[i] = in[rev].imag();
      std::size_t bit = n_ >> 1;
      while ((rev & bit) != 0) {
        rev ^= bit;
        bit >>= 1;
      }
      rev |= bit;
    }
    if (invert) {
      kernel_.dit<true>(re, im);
    } else {
      kernel_.dit<false>(re, im);
    }
    const float scale = invert ? 1.0f / static_cast<float>(n_) : 1.0f;
    for (std::size_t i = 0; i < n_; ++i) out[i] = cfloat(re[i] * scale, im[i] * scale);
  }

 private:
  /// chirp -> DIF -> pointwise x filter spectrum -> DIT -> chirp. The padded
  /// input is zero from n <= h on and only outputs below n are kept, so the
  /// m-point transforms' radix-2 stages prune to one twiddle multiply each,
  /// fused with the chirp. The padded buffer is allocated per call so a
  /// const plan can be shared across threads without any scratch held
  /// between calls.
  template <bool kInvert>
  void bluestein(std::span<const cfloat> in, std::span<cfloat> out) const {
    const std::size_t h = kernel_.size();
    const std::size_t m = 2 * h;
    const auto buf = std::make_unique_for_overwrite<float[]>(2 * m);
    float* re = buf.get();
    float* im = re + m;
    const float* cr = chirp_.data();
    const float* ci = cr + n_;
    const float* wr = lead_.data();
    const float* wi = wr + n_;
    for (std::size_t j = 0; j < n_; ++j) {
      const cfloat x = mul<kInvert>(in[j], cfloat(cr[j], ci[j]));
      const cfloat t = mul<false>(x, cfloat(wr[j], wi[j]));
      re[j] = x.real();
      im[j] = x.imag();
      re[h + j] = t.real();
      im[h + j] = t.imag();
    }
    std::fill(re + n_, re + h, 0.0f);
    std::fill(im + n_, im + h, 0.0f);
    std::fill(re + h + n_, re + m, 0.0f);
    std::fill(im + h + n_, im + m, 0.0f);
    kernel_.dif(re, im);
    kernel_.dif(re + h, im + h);
    // The chirp filter kernel is an even sequence, so the FFT of its
    // conjugate (the inverse-transform filter) equals conj(filter spectrum).
    pointwise<kInvert>(re, im, filter_.data(), filter_.data() + m, m);
    kernel_.dit<true>(re, im);
    kernel_.dit<true>(re + h, im + h);
    const float scale = kInvert ? 1.0f / static_cast<float>(n_) : 1.0f;
    for (std::size_t j = 0; j < n_; ++j) {
      const cfloat t = mul<true>(cfloat(re[h + j], im[h + j]), cfloat(wr[j], wi[j]));
      const cfloat y(re[j] + t.real(), im[j] + t.imag());
      const cfloat v = mul<kInvert>(y, cfloat(cr[j], ci[j]));
      out[j] = cfloat(v.real() * scale, v.imag() * scale);
    }
  }

  template <bool kConj>
  static void pointwise(float* __restrict re, float* __restrict im, const float* __restrict fr,
                        const float* __restrict fi, std::size_t m) {
    for (std::size_t k = 0; k < m; ++k) {
      const cfloat v = mul<kConj>(cfloat(re[k], im[k]), cfloat(fr[k], fi[k]));
      re[k] = v.real();
      im[k] = v.imag();
    }
  }

  std::size_t n_;
  // Power of two: the n-point kernel. Bluestein: the h = m/2 point kernel
  // that runs both halves after the (pruned) leading radix-2 stage.
  Radix4 kernel_;
  // Bluestein path, split re/im: chirp c[j] = exp(-i*pi*j^2/n) (length n),
  // the leading stage's twiddles exp(-2*pi*i*j/m) for j < n, and the
  // spectrum of the conjugate chirp filter in bit-reversed order,
  // prescaled by 1/m (length m).
  std::vector<float> chirp_;
  std::vector<float> lead_;
  std::vector<float> filter_;
};

/// rfft_even's split pass over the bin pairs (k, h - k), 1 <= k < h/2.
/// Taking the arrays as __restrict parameters also keeps GCC from
/// assembling each complex value through a stack slot, which stalled
/// store-to-load forwarding on every iteration.
void split_bins(cfloat* __restrict out, const cfloat* __restrict w, std::size_t h) {
  for (std::size_t k = 1; 2 * k < h; ++k) {
    const cfloat a = out[k];
    const cfloat b = std::conj(out[h - k]);
    const cfloat e(0.5f * (a.real() + b.real()), 0.5f * (a.imag() + b.imag()));
    const cfloat o(0.5f * (a.imag() - b.imag()), 0.5f * (b.real() - a.real()));
    const cfloat t = mul<false>(o, w[k]);
    out[k] = cfloat(e.real() + t.real(), e.imag() + t.imag());
    out[h - k] = cfloat(e.real() - t.real(), t.imag() - e.imag());
  }
}

/// irfft_even's mirror of split_bins, from the spectrum `in` into z.
void merge_bins(const cfloat* __restrict in, const cfloat* __restrict w, cfloat* __restrict z,
                std::size_t h) {
  for (std::size_t k = 1; 2 * k < h; ++k) {
    const cfloat x = in[k];
    const cfloat y = std::conj(in[h - k]);
    const cfloat e(0.5f * (x.real() + y.real()), 0.5f * (x.imag() + y.imag()));
    const cfloat d(0.5f * (x.real() - y.real()), 0.5f * (x.imag() - y.imag()));
    const cfloat o = mul<true>(d, w[k]);
    z[k] = cfloat(e.real() - o.imag(), e.imag() + o.real());
    z[h - k] = cfloat(e.real() + o.imag(), o.real() - e.imag());
  }
}

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
    split_bins(out.data(), split.data(), h);
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
    merge_bins(in.data(), split.data(), z.data(), h);
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
