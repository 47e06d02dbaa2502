// The paper's range-based, offset N-bit floating point (Sec 3.2.1, Alg 1).
//
// Idea: an IEEE-754 float's bit pattern, truncated to its top (9 + m) bits
// (sign, 8 exponent bits, m mantissa bits), still orders magnitudes
// monotonically, and consecutive truncated patterns are separated by a gap
// that doubles every 2^m codes — a "Gaussian like" spacing dense near zero,
// exactly matching gradient distributions (paper Fig 9). The code of a
// positive float is the distance of its truncated pattern from a base
// pattern `pbase` (the truncation of the smallest representable positive
// number, eps):
//
//   code(f)    = trunc_bits(f) - pbase + 1           f in [eps, max]
//   decode(c)  = float((pbase + c - 1) << (23 - m))
//
// Negative numbers follow the same rule on |f| and occupy the code space
// above the positives: code(-f) = P + (trunc_bits(f) - pbase + 1), where P
// is the number of positive codes. Code 0 is reserved for exact zero, and
// the all-ones code decodes to the most negative representable number —
// the quantity the paper's eps-tuning loop compares against `min`.
// Values with |f| below eps underflow to zero; values beyond [min, max]
// saturate.
//
// `tune()` reproduces the paper's calibration: given N, min and max
// (estimated from the first training iterations), it chooses eps so the
// all-ones code lands on `min` — which balances P toward 2^(N-1) for
// symmetric ranges — and picks the mantissa width m that minimizes RMS
// reconstruction error on a provided sample (the paper iterates every m).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fftgrad/util/taint.h"

namespace fftgrad::quant {

struct RangeFloatParams {
  int bits = 10;          ///< N: total code width in bits, 3..23.
  int mantissa_bits = 4;  ///< m: kept mantissa bits, 1..min(23, N).
  float min = -1.0f;      ///< Most negative representable target.
  float max = 1.0f;       ///< Largest positive representable target.
  float eps = 1e-3f;      ///< Smallest representable positive magnitude.
};

class RangeFloat {
 public:
  /// Build a codec from explicit parameters. Throws std::invalid_argument
  /// if the parameters cannot produce a valid code space (e.g. eps >= max,
  /// min >= 0, or more positive codes than fit in N bits).
  explicit RangeFloat(const RangeFloatParams& params);

  /// Paper-style calibration: pick eps from (N, min, max) so that the code
  /// space splits between positives and negatives at the range boundaries,
  /// then pick m in [1, N-1] minimizing RMS error on `sample` (if sample is
  /// empty, m defaults to N/2).
  static RangeFloat tune(int bits, float min, float max, std::span<const float> sample = {});

  const RangeFloatParams& params() const { return params_; }

  /// Number of positive codes P (paper notation). Total codes = 2^N with
  /// code 0 = zero, [1, P] positive, [P+1, P+negative_codes()] negative;
  /// any remaining codes are unused (they decode to the most negative
  /// representable value but are never produced by encode()).
  std::uint32_t positive_codes() const { return positive_codes_; }
  std::uint32_t negative_codes() const { return negative_codes_; }
  std::uint32_t code_count() const { return code_count_; }

  /// Quantize one value to its N-bit code (stored in the low N bits). As in
  /// the paper's Alg. 1 the mantissa is truncated: magnitudes round toward
  /// zero.
  std::uint32_t encode(float value) const;

  /// Reconstruct the representative value of a code.
  float decode(std::uint32_t code) const;

  /// The most negative representable number ("actual_min" in the paper's
  /// tuning loop; the all-ones code saturates to it).
  float actual_min() const { return decode(positive_codes_ + negative_codes_); }
  /// Representative of code P: the largest positive representable number.
  float actual_max() const { return decode(positive_codes_); }

  /// Bulk encode/decode (parallel for large spans). encode() codes
  /// in[i] * scale and decode() yields decode(in[i]) * scale, so a caller
  /// that normalizes by a peak does it in the same pass; the default 1 is
  /// exact and changes no value.
  void encode(std::span<const float> in, std::span<std::uint32_t> out, float scale = 1.0f) const;
  void decode(std::span<const std::uint32_t> in, std::span<float> out, float scale = 1.0f) const;

  /// Quantize-reconstruct each value: the exact lossy map of this stage.
  void round_trip(std::span<const float> in, std::span<float> out) const;

  /// Every representable value, ascending code order (for Figs 7/9).
  std::vector<float> representable_values() const;

 private:
  RangeFloatParams params_;
  std::uint32_t shift_ = 0;           // 23 - m
  std::uint32_t pbase_ = 0;           // trunc_bits(eps)
  std::uint32_t positive_codes_ = 0;  // P
  std::uint32_t negative_codes_ = 0;  // codes covering [min, -eps]
  std::uint32_t code_count_ = 0;      // 2^N
};

/// Append N-bit codes to `out` as one little-endian bit stream of
/// ceil(codes.size() * bits / 8) bytes (the wire format of the quantized
/// gradient frequencies), a word at a time, so a codec packs straight into
/// its packet. `bits` is in [1, 32]; each code's bits above it are dropped.
void pack_codes(std::span<const std::uint32_t> codes, int bits, std::vector<std::uint8_t>& out);

/// Unpack out.size() codes of `bits` each from the front of `bytes` into
/// `out`, reading a word at a time. Throws std::invalid_argument, before
/// writing anything, when `bytes` holds fewer codes than that. The codes
/// are wire input and come back Untrusted, as a view of `out`: release
/// them through a validator asserting the receiver's expectations (codes
/// inside its code space).
util::Untrusted<std::span<std::uint32_t>> unpack_codes(std::span<const std::uint8_t> bytes,
                                                       int bits, std::span<std::uint32_t> out);

}  // namespace fftgrad::quant
