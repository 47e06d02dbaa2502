#include "fftgrad/quant/range_float.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fftgrad/parallel/parallel_for.h"

namespace fftgrad::quant {
namespace {

constexpr std::size_t kParallelThreshold = 1 << 16;

std::uint32_t float_bits(float f) { return std::bit_cast<std::uint32_t>(f); }
float bits_float(std::uint32_t b) { return std::bit_cast<float>(b); }

}  // namespace

RangeFloat::RangeFloat(const RangeFloatParams& params) : params_(params) {
  if (params.bits < 3 || params.bits > 23) {
    throw std::invalid_argument("RangeFloat: bits must be in [3, 23]");
  }
  if (params.mantissa_bits < 1 || params.mantissa_bits > 22) {
    throw std::invalid_argument("RangeFloat: mantissa_bits must be in [1, 22]");
  }
  if (!(params.eps > 0.0f) || !std::isfinite(params.eps)) {
    throw std::invalid_argument("RangeFloat: eps must be a positive finite float");
  }
  if (!(params.max > params.eps)) {
    throw std::invalid_argument("RangeFloat: max must exceed eps");
  }
  if (!(params.min < 0.0f)) {
    throw std::invalid_argument("RangeFloat: min must be negative");
  }
  shift_ = static_cast<std::uint32_t>(23 - params.mantissa_bits);
  code_count_ = std::uint32_t{1} << params.bits;
  pbase_ = float_bits(params.eps) >> shift_;
  if (pbase_ == 0) {
    throw std::invalid_argument("RangeFloat: eps truncates to the zero pattern");
  }
  const std::uint32_t max_trunc = float_bits(params.max) >> shift_;
  if (max_trunc < pbase_) {
    throw std::invalid_argument("RangeFloat: max truncates below eps");
  }
  const std::uint64_t positives = static_cast<std::uint64_t>(max_trunc) - pbase_ + 1;
  if (positives > code_count_ - 2) {
    throw std::invalid_argument(
        "RangeFloat: range [eps, max] needs more codes than 2^bits provides; "
        "increase bits, increase eps, or decrease mantissa_bits");
  }
  positive_codes_ = static_cast<std::uint32_t>(positives);
  // Negative codes cover [min, -eps]; the magnitude ladder is shared with
  // the positive side, truncated both by the remaining code space and by
  // |min| (codes past |min| would decode outside the configured range).
  const std::uint32_t min_trunc = float_bits(-params.min) >> shift_;
  if (min_trunc < pbase_) {
    throw std::invalid_argument("RangeFloat: |min| truncates below eps");
  }
  negative_codes_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(code_count_ - 1 - positive_codes_,
                              static_cast<std::uint64_t>(min_trunc) - pbase_ + 1));
}

std::uint32_t RangeFloat::encode(float value) const {
  if (!(value == value)) return 0;  // NaN -> zero code
  if (value > 0.0f) {
    const float clamped = value > params_.max ? params_.max : value;
    const std::uint32_t trunc = float_bits(clamped) >> shift_;
    if (trunc < pbase_) return 0;  // underflow to zero
    return trunc - pbase_ + 1;     // <= P: clamped truncates to at most max's pattern
  }
  if (value < 0.0f) {
    const std::uint32_t trunc = float_bits(-value) >> shift_;
    if (trunc < pbase_) return 0;
    std::uint32_t offset = trunc - pbase_ + 1;
    if (offset > negative_codes_) offset = negative_codes_;  // saturate at min
    return positive_codes_ + offset;
  }
  return 0;
}

float RangeFloat::decode(std::uint32_t code) const {
  code &= code_count_ - 1;
  if (code == 0) return 0.0f;
  if (code <= positive_codes_) {
    return bits_float((pbase_ + code - 1) << shift_);
  }
  std::uint32_t offset = code - positive_codes_;
  // Codes past the negative cap are never produced by encode(); decode them
  // as the most negative representable value (saturation) for robustness
  // against corrupt wire data.
  if (offset > negative_codes_) offset = negative_codes_;
  return bits_float(((pbase_ + offset - 1) << shift_) | 0x80000000u);
}

void RangeFloat::encode(std::span<const float> in, std::span<std::uint32_t> out) const {
  if (in.size() != out.size()) throw std::invalid_argument("RangeFloat::encode: size mismatch");
  auto run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = encode(in[i]);
  };
  if (in.size() < kParallelThreshold) {
    run(0, in.size());
  } else {
    parallel::parallel_for(in.size(), run);
  }
}

void RangeFloat::decode(std::span<const std::uint32_t> in, std::span<float> out) const {
  if (in.size() != out.size()) throw std::invalid_argument("RangeFloat::decode: size mismatch");
  auto run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = decode(in[i]);
  };
  if (in.size() < kParallelThreshold) {
    run(0, in.size());
  } else {
    parallel::parallel_for(in.size(), run);
  }
}

void RangeFloat::round_trip(std::span<const float> in, std::span<float> out) const {
  if (in.size() != out.size()) {
    throw std::invalid_argument("RangeFloat::round_trip: size mismatch");
  }
  auto run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = decode(encode(in[i]));
  };
  if (in.size() < kParallelThreshold) {
    run(0, in.size());
  } else {
    parallel::parallel_for(in.size(), run);
  }
}

std::vector<float> RangeFloat::representable_values() const {
  std::vector<float> values(code_count_);
  for (std::uint32_t c = 0; c < code_count_; ++c) values[c] = decode(c);
  return values;
}

RangeFloat RangeFloat::tune(int bits, float min, float max, std::span<const float> sample) {
  if (!(min < 0.0f) || !(max > 0.0f)) {
    throw std::invalid_argument("RangeFloat::tune: need min < 0 < max");
  }
  if (bits < 3 || bits > 23) {
    throw std::invalid_argument("RangeFloat::tune: bits must be in [3, 23]");
  }

  const std::uint64_t codes = std::uint64_t{1} << bits;
  std::vector<RangeFloat> candidates;
  candidates.reserve(22);

  for (int m = 1; m <= 22; ++m) {
    const std::uint32_t shift = static_cast<std::uint32_t>(23 - m);
    const std::uint64_t tb_max = float_bits(max) >> shift;
    const std::uint64_t tb_min = float_bits(-min) >> shift;
    // Choose pbase so the most negative code decodes to `min` (the fixed
    // point of the paper's iterative eps search):
    //   pbase + negcap - 1 = tb_min  with  negcap = 2^N - 2 - tb_max + pbase
    //   => 2*pbase = tb_min + tb_max + 3 - 2^N.
    // When the range has fewer truncated steps than the code space, the
    // formula dips below 1; eps then floors at the smallest pattern and
    // the constructor's negative cap keeps decode() inside [min, max].
    const std::int64_t two_pbase = static_cast<std::int64_t>(tb_min) +
                                   static_cast<std::int64_t>(tb_max) + 3 -
                                   static_cast<std::int64_t>(codes);
    std::int64_t pbase = (two_pbase + 1) / 2;
    if (pbase < 1) pbase = 1;
    if (static_cast<std::uint64_t>(pbase) > tb_max) continue;  // no positive codes fit
    if (static_cast<std::uint64_t>(pbase) > tb_min) continue;  // no negative codes fit
    const std::uint64_t positives = tb_max - static_cast<std::uint64_t>(pbase) + 1;
    if (positives > codes - 2) continue;  // m too fine for this range/bit budget

    RangeFloatParams params;
    params.bits = bits;
    params.mantissa_bits = m;
    params.min = min;
    params.max = max;
    params.eps = bits_float(static_cast<std::uint32_t>(pbase) << shift);
    candidates.emplace_back(params);
  }
  if (candidates.empty()) {
    throw std::invalid_argument("RangeFloat::tune: no valid mantissa width for this range");
  }

  // Without data, calibrate against a uniform grid over the target range —
  // the agnostic prior over gradient values.
  std::vector<float> grid;
  if (sample.empty()) {
    constexpr int kGrid = 512;
    grid.reserve(kGrid);
    for (int i = 0; i < kGrid; ++i) {
      const float v = min + (max - min) * (static_cast<float>(i) + 0.5f) / kGrid;
      grid.push_back(v);
    }
    sample = grid;
  }

  const RangeFloat* best = nullptr;
  double best_err = std::numeric_limits<double>::infinity();
  for (const RangeFloat& cand : candidates) {
    double sq = 0.0;
    for (float v : sample) {
      const double d = static_cast<double>(v) - cand.decode(cand.encode(v));
      sq += d * d;
    }
    if (sq < best_err) {
      best_err = sq;
      best = &cand;
    }
  }
  return *best;
}

std::vector<std::uint8_t> pack_codes(std::span<const std::uint32_t> codes, int bits) {
  if (bits < 1 || bits > 32) throw std::invalid_argument("pack_codes: bits must be in [1, 32]");
  const std::size_t total_bits = codes.size() * static_cast<std::size_t>(bits);
  std::vector<std::uint8_t> bytes((total_bits + 7) / 8, 0);
  std::size_t bit_at = 0;
  const std::uint64_t mask = bits == 32 ? ~std::uint64_t{0} >> 32 : (std::uint64_t{1} << bits) - 1;
  for (std::uint32_t code : codes) {
    std::uint64_t value = code & mask;
    std::size_t byte = bit_at >> 3;
    const std::size_t offset = bit_at & 7;
    value <<= offset;
    for (int remaining = bits + static_cast<int>(offset); remaining > 0;
         remaining -= 8, value >>= 8, ++byte) {
      bytes[byte] |= static_cast<std::uint8_t>(value & 0xffu);
    }
    bit_at += static_cast<std::size_t>(bits);
  }
  return bytes;
}

util::Untrusted<std::vector<std::uint32_t>> unpack_codes(std::span<const std::uint8_t> bytes,
                                                         int bits, std::size_t count) {
  if (bits < 1 || bits > 32) throw std::invalid_argument("unpack_codes: bits must be in [1, 32]");
  // Division form: `count * bits` can wrap for a wire-supplied count, which
  // would let a corrupt header pass the length check and read out of bounds.
  if (count > bytes.size() * 8 / static_cast<std::size_t>(bits)) {
    throw std::invalid_argument("unpack_codes: byte stream too short");
  }
  std::vector<std::uint32_t> codes(count);
  const std::uint64_t mask = bits == 32 ? ~std::uint64_t{0} >> 32 : (std::uint64_t{1} << bits) - 1;
  std::size_t bit_at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t byte = bit_at >> 3;
    const std::size_t offset = bit_at & 7;
    std::uint64_t value = 0;
    const std::size_t span_bytes = (offset + static_cast<std::size_t>(bits) + 7) / 8;
    for (std::size_t b = 0; b < span_bytes; ++b) {
      value |= static_cast<std::uint64_t>(bytes[byte + b]) << (8 * b);
    }
    codes[i] = static_cast<std::uint32_t>((value >> offset) & mask);
    bit_at += static_cast<std::size_t>(bits);
  }
  return util::untrusted(std::move(codes));
}

}  // namespace fftgrad::quant
