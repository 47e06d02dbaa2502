// From-scratch FFT library (the cuFFT substitute).
//
// FftPlan caches twiddle factors and chirp tables for a fixed transform
// size, mirroring cuFFT's plan-then-execute interface. One power-of-two
// kernel does the work: radix-4 stages, plus one radix-2 stage when log2 of
// its length is odd, over separate real and imaginary arrays, as a
// decimation-in-frequency (DIF) pass from natural to bit-reversed order and
// its transpose, a decimation-in-time (DIT) pass back. A power-of-two size
// gathers its input into bit-reversed order and runs the DIT pass. Every
// other size runs Bluestein's chirp-z convolution on a padded power of two
// m >= 2n - 1: DIF, a pointwise product with the filter spectrum (stored in
// the DIF's order, so nothing is reordered), DIT. Any gradient length is
// thus supported without copying into padded buffers at the call site. The
// working buffers are the calling thread's (util::thread_scratch: one split
// re/im buffer for the kernel, 2n floats for a power of two and 2m for
// Bluestein, and for odd-n real transforms n complex values), grown on
// first use and kept for the thread's next transform. A plan keeps no
// scratch, so one const plan may be shared by any number of threads. A
// Bluestein transform of 32,769 points or more (m >= 2^17; for an even-n
// rfft/irfft that is the n/2-point half) splits its work across
// parallel::ThreadPool::global(), whose workers work on the caller's
// buffer, and blocks until it is done; called from a pool task or a thread
// marked to run chunks inline (a rank thread of a cluster_train whose ranks
// fill the pool), it runs the same pieces inline instead. Either way the
// result is bit-identical.
//
// Real transforms (what the compressor uses — gradients are real 1-D
// signals) are exposed as rfft/irfft over the non-redundant half spectrum
// of n/2 + 1 bins. For even n, rfft reads the signal as n/2 interleaved
// complex values, runs the n/2-point plan and splits the result into the
// real spectrum in one O(n) pass; irfft is the exact mirror, building the
// n/2 complex values in its output and transforming them there. That is
// about half the work of an n-point complex transform, and an even-n plan
// builds its n-point machinery only when forward()/inverse() is first
// called. Odd n runs the n-point complex transform. irfft enforces the
// conjugate symmetry implicitly, so rfft followed by irfft reproduces the
// input to float round-off.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace fftgrad::fft {

using cfloat = std::complex<float>;

/// The per-thread scratch role (util::thread_scratch) of the transforms'
/// float working buffer. It is free between transforms, so a caller may
/// borrow it for floats it is done with before its thread's next
/// transform. After an rfft or irfft of n points it holds at least n / 2 + 1
/// floats, so borrowing that many does not grow it.
struct TransformScratch;

class FftPlan {
 public:
  /// Plan for transforms of length n >= 1.
  explicit FftPlan(std::size_t n);
  ~FftPlan();
  FftPlan(FftPlan&&) noexcept;
  FftPlan& operator=(FftPlan&&) noexcept;
  FftPlan(const FftPlan&) = delete;
  FftPlan& operator=(const FftPlan&) = delete;

  std::size_t size() const;

  /// out[k] = sum_j in[j] * exp(-2*pi*i*j*k/n). in/out must have length n;
  /// in-place (in.data() == out.data()) is allowed.
  void forward(std::span<const cfloat> in, std::span<cfloat> out) const;

  /// Inverse transform with 1/n normalization: inverse(forward(x)) == x.
  void inverse(std::span<const cfloat> in, std::span<cfloat> out) const;

  /// Number of non-redundant complex bins of a real transform: n/2 + 1.
  std::size_t real_bins() const { return size() / 2 + 1; }

  /// Real-to-complex forward transform. out must have real_bins() entries.
  /// `in` may be out's own storage viewed as floats (its first n floats),
  /// so a caller can write the signal into the spectrum's buffer and
  /// transform it in place; otherwise the two must not overlap.
  void rfft(std::span<const float> in, std::span<cfloat> out) const;

  /// Complex-to-real inverse of rfft (1/n normalized). in must have
  /// real_bins() entries, out length n. Bins are treated as a conjugate-
  /// symmetric spectrum; any imaginary part in bin 0 (and bin n/2 for even
  /// n) is ignored.
  void irfft(std::span<const cfloat> in, std::span<float> out) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True iff n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// One-shot convenience wrappers (construct a plan internally; prefer
/// FftPlan for repeated transforms of the same size).
std::vector<cfloat> fft(std::span<const cfloat> in);
std::vector<cfloat> ifft(std::span<const cfloat> in);
std::vector<cfloat> rfft(std::span<const float> in);
std::vector<float> irfft(std::span<const cfloat> bins, std::size_t n);

}  // namespace fftgrad::fft
