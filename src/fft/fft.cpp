#include "fftgrad/fft/fft.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "fftgrad/parallel/parallel_for.h"
#include "fftgrad/util/scratch.h"

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

/// Complex arrays come in two layouts: complex values, and interleaved
/// float pairs (re at 2j, im at 2j + 1), which is how rfft reads its real
/// input and irfft writes its real output, each as n/2 complex values.
/// offset() is the address of complex element j, load()/store() read and
/// write it.
inline const cfloat* offset(const cfloat* p, std::size_t j) { return p + j; }
inline cfloat* offset(cfloat* p, std::size_t j) { return p + j; }
inline const float* offset(const float* p, std::size_t j) { return p + 2 * j; }
inline float* offset(float* p, std::size_t j) { return p + 2 * j; }
inline cfloat load(const cfloat* p, std::size_t j) { return p[j]; }
inline cfloat load(const float* p, std::size_t j) { return cfloat(p[2 * j], p[2 * j + 1]); }
inline void store(cfloat* p, std::size_t j, cfloat v) { p[j] = v; }
inline void store(float* p, std::size_t j, cfloat v) {
  p[2 * j] = v.real();
  p[2 * j + 1] = v.imag();
}

/// The per-thread scratch behind a transform: TransformScratch is the split
/// re/im working buffer of one complex transform (2n floats for a power of
/// two, 2m for Bluestein), and OddRealScratch the n complex values an
/// odd-n real transform runs on.
struct OddRealScratch;

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
// sits on the parameters themselves. The radix-4 ones are forced inline:
// with two callers each GCC keeps them out of line, which made 6,154- and
// 15,013-point transforms 7-8% slower.

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
/// each as q real parts then q imaginary parts. Butterflies j < count run:
/// count < q is a slice of the stage, with every pointer offset to its start.
[[gnu::always_inline]] inline void dif4(float* __restrict r0, float* __restrict i0,
                                        float* __restrict r1, float* __restrict i1,
                                        float* __restrict r2, float* __restrict i2,
                                        float* __restrict r3, float* __restrict i3,
                                        const float* __restrict w, std::size_t q,
                                        std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
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
/// sum_r v_r * (-i)^(l*r). `w`, q and count as for dif4.
template <bool kConj>
[[gnu::always_inline]] inline void dit4(float* __restrict r0, float* __restrict i0,
                                        float* __restrict r1, float* __restrict i1,
                                        float* __restrict r2, float* __restrict i2,
                                        float* __restrict r3, float* __restrict i3,
                                        const float* __restrict w, std::size_t q,
                                        std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
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

/// Bluestein's input loop for j < count: x = in[j] * c[j] (conj(c) when
/// kConj) into (r0, i0), and x * w[j], the pruned leading radix-2 stage of
/// the padded transform, into (r1, i1). Like the butterflies it takes
/// __restrict parameters: called from outside the function that allocates
/// the buffer, GCC could no longer tell the arrays apart and the transforms
/// below the pool threshold ran 7% slower.
template <bool kConj, typename In>
void chirp_in(const In* __restrict in, const float* __restrict cr, const float* __restrict ci,
              const float* __restrict wr, const float* __restrict wi, float* __restrict r0,
              float* __restrict i0, float* __restrict r1, float* __restrict i1,
              std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
    const cfloat x = mul<kConj>(load(in, j), cfloat(cr[j], ci[j]));
    const cfloat t = mul<false>(x, cfloat(wr[j], wi[j]));
    r0[j] = x.real();
    i0[j] = x.imag();
    r1[j] = t.real();
    i1[j] = t.imag();
  }
}

/// Bluestein's output loop for j < count: the pruned trailing radix-2
/// stage y = a + b * conj(w[j]), then y * c[j] (conj(c) when kConj), times
/// `scale`.
template <bool kConj, typename Out>
void chirp_out(const float* __restrict r0, const float* __restrict i0, const float* __restrict r1,
               const float* __restrict i1, const float* __restrict cr, const float* __restrict ci,
               const float* __restrict wr, const float* __restrict wi, float scale,
               Out* __restrict out, std::size_t count) {
  for (std::size_t j = 0; j < count; ++j) {
    const cfloat t = mul<true>(cfloat(r1[j], i1[j]), cfloat(wr[j], wi[j]));
    const cfloat y(r0[j] + t.real(), i0[j] + t.imag());
    const cfloat v = mul<kConj>(y, cfloat(cr[j], ci[j]));
    store(out, j, cfloat(v.real() * scale, v.imag() * scale));
  }
}

/// Power-of-two FFT over split-complex data (separate re and im arrays):
/// one radix-2 stage when log2 m is odd, then radix-4 stages. dif() is a
/// decimation-in-frequency pass from natural to bit-reversed order; dit()
/// is its exact transpose, from bit-reversed back to natural order. (The
/// 0, 2, 1, 3 quarter order of each radix-4 stage is what makes the mixed
/// digit order plain bit reversal.) Twiddles are computed in double and
/// stored as float, one contiguous table per stage.
///
/// The first DIF stage (the last DIT stage) is the only one that crosses
/// blocks of leg() points: the halves when log2 m is odd, the quarters when
/// it is even and m >= 16, and for m <= 4 the whole kernel, where that stage
/// does nothing. Every other stage stays inside one block. So dif() is
/// dif_lead() then dif_rest(), dit() is dit_rest() then dit_last(), and the
/// pieces also run on parts: *_lead/*_last on a slice [j0, j1) of that
/// stage's butterflies, *_rest on any run of whole blocks.
class Radix4 {
 public:
  explicit Radix4(std::size_t m)
      : m_(m), legs_(m >= 2 && std::countr_zero(m) % 2 == 1 ? 2 : (m >= 16 ? 4 : 1)) {
    if (legs_ == 2) append_twiddles(twiddles_, m, 1, m / 2);
    if (legs_ == 4) {
      for (std::size_t r = 1; r <= 3; ++r) append_twiddles(twiddles_, m, r, m / 4);
    }
    rest_ = twiddles_.size();
    for (std::size_t len = leg(); len >= 16; len /= 4) {
      for (std::size_t r = 1; r <= 3; ++r) append_twiddles(twiddles_, len, r, len / 4);
    }
  }

  std::size_t size() const { return m_; }
  std::size_t leg() const { return m_ / legs_; }

  /// Forward DFT of natural-order data, leaving X[k] at index bitrev(k).
  void dif(float* re, float* im) const {
    dif_lead(re, im, 0, leg());
    dif_rest(re, im, m_);
  }

  /// DFT (conjugate-twiddle, unnormalized inverse DFT when kConj) of data
  /// whose element k sits at index bitrev(k); the result is in natural order.
  template <bool kConj>
  void dit(float* re, float* im) const {
    dit_rest<kConj>(re, im, m_);
    dit_last<kConj>(re, im, 0, leg());
  }

  /// Butterflies j in [j0, j1) of the first DIF stage.
  void dif_lead(float* re, float* im, std::size_t j0, std::size_t j1) const {
    const std::size_t q = leg();
    const float* w = twiddles_.data() + j0;
    float* r = re + j0;
    float* i = im + j0;
    if (legs_ == 2) dif2(r, i, r + q, i + q, w, w + q, j1 - j0);
    if (legs_ == 4) {
      dif4(r, i, r + q, i + q, r + 2 * q, i + 2 * q, r + 3 * q, i + 3 * q, w, q, j1 - j0);
    }
  }

  /// Every DIF stage after the first, stage by stage over the `span`
  /// points (whole blocks) at re/im.
  void dif_rest(float* re, float* im, std::size_t span) const {
    const float* w = twiddles_.data() + rest_;
    std::size_t len = leg();
    for (; len >= 16; len /= 4) {
      const std::size_t q = len / 4;
      for (std::size_t at = 0; at < span; at += len) {
        float* r = re + at;
        float* i = im + at;
        dif4(r, i, r + q, i + q, r + 2 * q, i + 2 * q, r + 3 * q, i + 3 * q, w, q, q);
      }
      w += 6 * q;
    }
    if (len == 4) dif4_quads(re, im, span);
  }

  /// Every DIT stage but the last, stage by stage over the `span` points
  /// (whole blocks) at re/im.
  template <bool kConj>
  void dit_rest(float* re, float* im, std::size_t span) const {
    if (leg() >= 4) dit4_quads<kConj>(re, im, span);
    const float* w = twiddles_.data() + twiddles_.size();
    for (std::size_t len = 16; len <= leg(); len *= 4) {
      const std::size_t q = len / 4;
      w -= 6 * q;
      for (std::size_t at = 0; at < span; at += len) {
        float* r = re + at;
        float* i = im + at;
        dit4<kConj>(r, i, r + q, i + q, r + 2 * q, i + 2 * q, r + 3 * q, i + 3 * q, w, q, q);
      }
    }
  }

  /// Butterflies j in [j0, j1) of the last DIT stage.
  template <bool kConj>
  void dit_last(float* re, float* im, std::size_t j0, std::size_t j1) const {
    const std::size_t q = leg();
    const float* w = twiddles_.data() + j0;
    float* r = re + j0;
    float* i = im + j0;
    if (legs_ == 2) dit2<kConj>(r, i, r + q, i + q, w, w + q, j1 - j0);
    if (legs_ == 4) {
      dit4<kConj>(r, i, r + q, i + q, r + 2 * q, i + 2 * q, r + 3 * q, i + 3 * q, w, q, j1 - j0);
    }
  }

 private:
  std::size_t m_;
  std::size_t legs_;
  // The first stage's twiddles, then from rest_ on each later DIF stage's.
  std::vector<float> twiddles_;
  std::size_t rest_ = 0;
};

/// Bluestein kernels of at least this many points (h = m/2) split each of
/// their three pieces across ThreadPool::global(); smaller ones call each
/// piece once, over its whole range, on the calling thread. One
/// parallel_for dispatch costs about 20 us (p50, 4-core VM); one block of
/// the middle piece at this size, a 2^14-point quarter of a half, about
/// 190 us.
constexpr std::size_t kPoolMinKernel = std::size_t{1} << 16;

/// Runs piece(begin, end) over [0, count): as parallel_for's chunks when
/// `pooled`, else as one call on this thread.
template <typename Piece>
void run_pieces(bool pooled, std::size_t count, const Piece& piece) {
  if (pooled) {
    parallel::parallel_for(count, piece);
  } else {
    piece(0, count);
  }
}

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

  /// out = DFT(in), or the 1/n-normalized inverse DFT when `invert`, over
  /// n complex values in either layout. Every input is read before any
  /// output is written, so `in` may be `out`'s storage.
  template <typename In, typename Out>
  void execute(const In* in, Out* out, bool invert) const {
    if (!chirp_.empty()) {
      if (invert) {
        bluestein<true>(in, out);
      } else {
        bluestein<false>(in, out);
      }
      return;
    }
    // Gather into bit-reversed split form, then one DIT pass.
    float* re = util::thread_scratch<float, TransformScratch>(2 * n_).data();
    float* im = re + n_;
    for (std::size_t i = 0, rev = 0; i < n_; ++i) {
      const cfloat x = load(in, rev);
      re[i] = x.real();
      im[i] = x.imag();
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
    for (std::size_t i = 0; i < n_; ++i) store(out, i, cfloat(re[i] * scale, im[i] * scale));
  }

 private:
  /// chirp -> DIF -> pointwise x filter spectrum -> DIT -> chirp. The padded
  /// input is zero from n <= h on and only outputs below n are kept, so the
  /// m-point transforms' radix-2 stages prune to one twiddle multiply each,
  /// fused with the chirp. The padded buffer is the calling thread's
  /// transform scratch, so a const plan can serve any number of threads and
  /// holds no scratch itself.
  ///
  /// The work runs as three pieces, each split over disjoint parts of the
  /// buffer when the kernel is large enough to pay for the pool; the pool's
  /// workers then work on the caller's buffer. Every element sees the same
  /// float operations whichever way its piece runs, so the result is
  /// bit-identical either way. The first piece reads all of `in` and only
  /// the last writes `out`.
  template <bool kInvert, typename In, typename Out>
  void bluestein(const In* in, Out* out) const {
    const std::size_t h = kernel_.size();
    const std::size_t m = 2 * h;
    const std::size_t leg = kernel_.leg();
    float* re = util::thread_scratch<float, TransformScratch>(2 * m).data();
    float* im = re + m;
    const bool pooled = h >= kPoolMinKernel;
    // A slice [j0, j1) of the first kernel stage of both halves, after the
    // chirp has written the elements it reads.
    run_pieces(pooled, leg, [&](std::size_t j0, std::size_t j1) {
      for (std::size_t at = 0; at < h; at += leg) input<kInvert>(in, re, im, at + j0, at + j1);
      kernel_.dif_lead(re, im, j0, j1);
      kernel_.dif_lead(re + h, im + h, j0, j1);
    });
    // Whole blocks [b0, b1) of both halves: the rest of the DIF, the
    // product with the filter spectrum, the DIT up to its last stage. The
    // chirp filter kernel is an even sequence, so the FFT of its conjugate
    // (the inverse-transform filter) equals conj(filter spectrum).
    run_pieces(pooled, m / leg, [&](std::size_t b0, std::size_t b1) {
      const std::size_t at = b0 * leg;
      const std::size_t span = (b1 - b0) * leg;
      kernel_.dif_rest(re + at, im + at, span);
      pointwise<kInvert>(re + at, im + at, filter_.data() + at, filter_.data() + m + at, span);
      kernel_.dit_rest<true>(re + at, im + at, span);
    });
    // A slice [j0, j1) of the last kernel stage of both halves, then the
    // chirp on what it wrote.
    run_pieces(pooled, leg, [&](std::size_t j0, std::size_t j1) {
      kernel_.dit_last<true>(re, im, j0, j1);
      kernel_.dit_last<true>(re + h, im + h, j0, j1);
      for (std::size_t at = 0; at < h; at += leg) output<kInvert>(re, im, out, at + j0, at + j1);
    });
  }

  /// Bluestein's input for j in [a, b): x = in[j] * chirp[j] into the first
  /// half and x * w^j (the pruned leading stage) into the second, zero from
  /// n on.
  template <bool kInvert, typename In>
  void input(const In* in, float* re, float* im, std::size_t a, std::size_t b) const {
    const std::size_t h = kernel_.size();
    const std::size_t end = std::clamp(n_, a, b);
    if (a < end) {
      const float* c = chirp_.data();
      const float* w = lead_.data();
      chirp_in<kInvert>(offset(in, a), c + a, c + n_ + a, w + a, w + n_ + a, re + a, im + a,
                        re + h + a, im + h + a, end - a);
    }
    std::fill(re + end, re + b, 0.0f);
    std::fill(im + end, im + b, 0.0f);
    std::fill(re + h + end, re + h + b, 0.0f);
    std::fill(im + h + end, im + h + b, 0.0f);
  }

  /// Bluestein's output for j in [a, b), j < n: the pruned trailing stage,
  /// the chirp and the inverse's 1/n.
  template <bool kInvert, typename Out>
  void output(const float* re, const float* im, Out* out, std::size_t a, std::size_t b) const {
    const std::size_t h = kernel_.size();
    const std::size_t end = std::min(b, n_);
    if (end <= a) return;
    const float* c = chirp_.data();
    const float* w = lead_.data();
    const float scale = kInvert ? 1.0f / static_cast<float>(n_) : 1.0f;
    chirp_out<kInvert>(re + a, im + a, re + h + a, im + h + a, c + a, c + n_ + a, w + a,
                       w + n_ + a, scale, offset(out, a), end - a);
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

/// irfft_even's mirror of split_bins, from the spectrum `in` into z, h
/// complex values stored as interleaved float pairs.
void merge_bins(const cfloat* __restrict in, const cfloat* __restrict w, float* __restrict z,
                std::size_t h) {
  for (std::size_t k = 1; 2 * k < h; ++k) {
    const cfloat x = in[k];
    const cfloat y = std::conj(in[h - k]);
    const cfloat e(0.5f * (x.real() + y.real()), 0.5f * (x.imag() + y.imag()));
    const cfloat d(0.5f * (x.real() - y.real()), 0.5f * (x.imag() - y.imag()));
    const cfloat o = mul<true>(d, w[k]);
    store(z, k, cfloat(e.real() - o.imag(), e.imag() + o.real()));
    store(z, h - k, cfloat(e.real() + o.imag(), o.real() - e.imag()));
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
    full().execute(in.data(), out.data(), invert);
  }

  /// Even n. z[j] = x[2j] + i*x[2j+1], the signal read as h = n/2
  /// interleaved complex values, has the h-point spectrum Z, and with
  /// A = Z[k], B = conj(Z[h-k]) the real spectrum is
  ///   X[k] = E + W^k * O,  E = (A + B)/2,  O = -i(A - B)/2,  W = exp(-2*pi*i/n)
  /// and X[h-k] = conj(E - W^k * O), so each pass handles bins k and h-k.
  void rfft_even(std::span<const float> in, std::span<cfloat> out) const {
    const std::size_t h = n / 2;
    half->execute(in.data(), out.data(), /*invert=*/false);
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
  /// read, which projects them to the real values a real signal needs. Z is
  /// built in `out` as h interleaved complex values and transformed in
  /// place, which leaves x[2j] + i*x[2j+1] exactly where x belongs.
  void irfft_even(std::span<const cfloat> in, std::span<float> out) const {
    const std::size_t h = n / 2;
    float* z = out.data();
    const float dc = in[0].real();
    const float nyquist = in[h].real();
    store(z, 0, cfloat(0.5f * (dc + nyquist), 0.5f * (dc - nyquist)));
    merge_bins(in.data(), split.data(), z, h);
    if (h % 2 == 0 && h >= 2) store(z, h / 2, std::conj(in[h / 2]));
    half->execute(static_cast<const float*>(z), z, /*invert=*/true);
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
  // `in` is read in full before `out` is written, so it may alias out.
  const std::span<cfloat> buf = util::thread_scratch<cfloat, OddRealScratch>(n);
  for (std::size_t i = 0; i < n; ++i) buf[i] = cfloat(in[i], 0.0f);
  impl_->full().execute(static_cast<const cfloat*>(buf.data()), buf.data(), /*invert=*/false);
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
  const std::span<cfloat> spectrum = util::thread_scratch<cfloat, OddRealScratch>(n);
  // The DC bin must be real for a real signal. Rather than trusting the
  // caller we project it.
  spectrum[0] = cfloat(in[0].real(), 0.0f);
  for (std::size_t k = 1; k < real_bins(); ++k) spectrum[k] = in[k];
  for (std::size_t k = real_bins(); k < n; ++k) spectrum[k] = std::conj(spectrum[n - k]);
  impl_->full().execute(static_cast<const cfloat*>(spectrum.data()), spectrum.data(),
                        /*invert=*/true);
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
