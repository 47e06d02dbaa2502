// Zero-overhead dimensional types for the quantities that cross the
// perfmodel / comm / telemetry boundaries.
//
// Every cost-model formula (Eq. 1/2 of the paper, the alpha-beta collective
// schedules, the RetryPolicy expectations) and every ledger reconciliation
// row mixes seconds, bytes, bits, element counts and ratios — and before
// this header they were all bare `double`, so a bits-vs-bytes slip or a
// wall-vs-simulated clock mixup compiled silently and surfaced as a
// mysteriously drifting model. Each quantity is now a distinct strong type
// over one `double`:
//
//   SimSeconds       time on the *simulated* timeline (SimClock, cost model)
//   WallSeconds      time on the *host* timeline (WallTimer measurements)
//   Bytes            payload / wire sizes
//   Bits             sub-byte wire sizes (mask encodings, quantized codes)
//   Elements         gradient element counts
//   BytesPerSecond   link and primitive throughputs
//   Ratio            dimensionless compression ratios (raw / wire)
//
// Only dimensionally valid operators exist: same-unit +/- and comparisons,
// scalar scaling, `Bytes / BytesPerSecond -> SimSeconds`,
// `Bytes / SimSeconds -> BytesPerSecond`, `Bytes / Ratio -> Bytes`, and the
// explicit Bits<->Bytes conversions (factor 8 lives in exactly one place).
// Same-unit division yields a plain double (a dimensionless factor).
// Sim and wall seconds never mix: nothing converts a WallSeconds into a
// SimSeconds, so simulated time comes only from models and a host
// measurement cannot reach it without a compile error. The only way back
// to a raw double is the explicit to_double() escape hatch (for printf/JSON
// serialization and for numerics like pow/log that are unit-transparent).
//
// Everything is constexpr and trivially copyable: a Quantity<Tag> is one
// double with no virtualness and no invariants, so the types compile to
// nothing. tests/test_units.cpp pins that layout (size and trivial
// copyability), the algebra and — via expression-SFINAE probes — the
// *absence* of the invalid operators.
#pragma once

#include <cstddef>

namespace fftgrad::util {

template <typename Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double value) : value_(value) {}

  /// Escape hatch to the raw double — explicit by design; use it only at
  /// serialization / numerics boundaries, never to launder a unit mismatch.
  constexpr double to_double() const { return value_; }

  constexpr Quantity operator-() const { return Quantity(-value_); }
  constexpr Quantity& operator+=(Quantity other) {
    value_ += other.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity other) {
    value_ -= other.value_;
    return *this;
  }
  constexpr Quantity& operator*=(double factor) {
    value_ *= factor;
    return *this;
  }
  constexpr Quantity& operator/=(double divisor) {
    value_ /= divisor;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.value_ + b.value_);
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.value_ - b.value_);
  }
  friend constexpr Quantity operator*(Quantity a, double factor) {
    return Quantity(a.value_ * factor);
  }
  friend constexpr Quantity operator*(double factor, Quantity a) {
    return Quantity(factor * a.value_);
  }
  friend constexpr Quantity operator/(Quantity a, double divisor) {
    return Quantity(a.value_ / divisor);
  }
  /// Same-unit division is a dimensionless factor.
  friend constexpr double operator/(Quantity a, Quantity b) { return a.value_ / b.value_; }

  friend constexpr bool operator==(Quantity a, Quantity b) = default;
  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

 private:
  double value_ = 0.0;
};

struct SimSecondsTag {};
struct WallSecondsTag {};
struct BytesTag {};
struct BitsTag {};
struct ElementsTag {};
struct BytesPerSecondTag {};
struct RatioTag {};

using SimSeconds = Quantity<SimSecondsTag>;
using WallSeconds = Quantity<WallSecondsTag>;
using Bytes = Quantity<BytesTag>;
using Bits = Quantity<BitsTag>;
using Elements = Quantity<ElementsTag>;
using BytesPerSecond = Quantity<BytesPerSecondTag>;
using Ratio = Quantity<RatioTag>;

// ---------------------------------------------------------------------------
// Cross-dimension algebra: only the physically meaningful combinations.

/// Transfer time of `size` over a link of `rate` (the beta term of the
/// alpha-beta model; network transfer time lives on the simulated clock).
constexpr SimSeconds operator/(Bytes size, BytesPerSecond rate) {
  return SimSeconds(size.to_double() / rate.to_double());
}

/// Throughput achieved moving `size` in `elapsed` simulated seconds.
constexpr BytesPerSecond operator/(Bytes size, SimSeconds elapsed) {
  return BytesPerSecond(size.to_double() / elapsed.to_double());
}

/// Bytes moved at `rate` for `elapsed` simulated seconds.
constexpr Bytes operator*(BytesPerSecond rate, SimSeconds elapsed) {
  return Bytes(rate.to_double() * elapsed.to_double());
}
constexpr Bytes operator*(SimSeconds elapsed, BytesPerSecond rate) { return rate * elapsed; }

/// Compressing `raw` at `ratio` leaves raw/ratio bytes on the wire.
constexpr Bytes operator/(Bytes raw, Ratio ratio) {
  return Bytes(raw.to_double() / ratio.to_double());
}

/// The achieved compression ratio of a (raw, wire) byte pair.
constexpr Ratio ratio_of(Bytes raw, Bytes wire) { return Ratio(raw / wire); }

// ---------------------------------------------------------------------------
// Explicit unit conversions. The 8x bit/byte factor has exactly one home.

constexpr Bits bits_of(Bytes bytes) { return Bits(bytes.to_double() * 8.0); }
constexpr Bytes bytes_of(Bits bits) { return Bytes(bits.to_double() / 8.0); }

/// Byte size of `count` elements of `elem_size` bytes each.
constexpr Bytes bytes_for(Elements count, std::size_t elem_size) {
  return Bytes(count.to_double() * static_cast<double>(elem_size));
}

/// Convenience for the ubiquitous size_t element/byte counts.
constexpr Elements elements(std::size_t count) {
  return Elements(static_cast<double>(count));
}
constexpr Bytes byte_count(std::size_t count) { return Bytes(static_cast<double>(count)); }

}  // namespace fftgrad::util
