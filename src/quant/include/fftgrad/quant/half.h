// Software IEEE-754 binary16 ("half") conversion.
//
// The paper converts 32-bit gradients to 16-bit before the FFT to double
// the FFT throughput on mixed-precision GPUs; the information loss is
// negligible because gradients are bounded. We reproduce that pipeline
// stage in software: float -> half -> float with round-to-nearest-even,
// full subnormal/inf/nan handling, so the compressor's numerics match the
// mixed-precision path.
#pragma once

#include <cstdint>
#include <span>

namespace fftgrad::quant {

/// Opaque 16-bit storage type for an IEEE binary16 value.
struct Half {
  std::uint16_t bits = 0;
};

/// Convert with round-to-nearest-even; overflow saturates to +-inf.
Half float_to_half(float value);

float half_to_float(Half value);

/// Bulk conversions (parallelized over the global thread pool for large
/// spans; this is the "Tm" primitive of the Sec 3.3 cost model).
void float_to_half(std::span<const float> in, std::span<Half> out);
void half_to_float(std::span<const Half> in, std::span<float> out);

/// Round-trip through binary16: the exact lossy mapping the compressor's
/// first pipeline stage applies. A branch-free kernel on the floats' bits
/// that the compiler runs on vector lanes; it equals
/// half_to_float(float_to_half(x)) bit for bit on every input, NaN
/// payloads included (tests/test_half_exhaustive.cpp checks all 2^32).
void half_round_trip(std::span<const float> in, std::span<float> out);

}  // namespace fftgrad::quant
