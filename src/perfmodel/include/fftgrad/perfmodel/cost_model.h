// The Sec 3.3 analytic performance model.
//
// Given the measured throughputs of the four compression primitives
// (precision conversion Tm, FFT Tf, packing Tp, top-k selection Ts) and the
// network throughput Tcomm, the model predicts
//
//   cost_comp  = M * (2/Tm + 1/Tf + 1/Tp + 1/Ts)               (Eq. 1)
//   cost_comm  = (M / Tcomm) * (1/k)                           (Eq. 2)
//   saved      = (M / Tcomm) * (1 - 1/k)                       (Eq. 3)
//
// and the minimal compression ratio with a net benefit,
//
//   k > 1 / (1 - 2*Tcomm*(2/Tm + 1/Tf + 1/Tp + 1/Ts))          (Eq. 4)
//
// (compression + decompression must cost less than the saved communication,
// hence the factor 2). When the denominator is <= 0 no ratio helps — the
// network outruns the compression primitives, the regime the paper flags
// for fast InfiniBand with slow primitives.
//
// Quantities are dimensionally typed (fftgrad/util/units.h): throughputs
// are BytesPerSecond, message sizes Bytes, predicted costs SimSeconds, and
// compression ratios Ratio — so feeding Eq. 2 a Gbit/s figure or a bit
// count is a compile error, not a 8x-wrong reconciliation row.
#pragma once

#include <optional>

#include "fftgrad/util/units.h"

namespace fftgrad::perfmodel {

using util::Bytes;
using util::BytesPerSecond;
using util::Ratio;
using util::SimSeconds;

struct PrimitiveThroughputs {
  BytesPerSecond conversion{350e9};  ///< Tm: float<->half and range quantization
  BytesPerSecond fft{180e9};         ///< Tf
  BytesPerSecond packing{34e9};      ///< Tp (paper: 34 GB/s measured on a V100)
  BytesPerSecond selection{35e9};    ///< Ts (bucket-select class kernels)
  /// Throughput of stochastic quantization kernels (per-element RNG +
  /// rounding), used by the QSGD/TernGrad baselines' cost models. Not part
  /// of Eq. 1 (the paper's pipeline has no stochastic stage).
  BytesPerSecond stochastic{10e9};
};

/// One rank's simulated training step, as both trainers charge it: its
/// compute, and the throughputs its codec's per-byte cost is charged at
/// once to compress and once to decompress (Eq. 4's factor 2).
struct ComputeModel {
  SimSeconds compute_s{};              ///< a rank's forward + backward per iteration
  PrimitiveThroughputs throughputs{};  ///< calibrated GPU-class defaults
};

/// 1/Tm' aggregate of Eq. 1's parenthesised term (simulated seconds per
/// byte of input gradient).
double seconds_per_byte(const PrimitiveThroughputs& t);

/// Eq. 1: one-sided compression cost for a message of `size`.
SimSeconds compression_cost(Bytes size, const PrimitiveThroughputs& t);

/// Eq. 2: post-compression communication cost.
SimSeconds communication_cost(Bytes size, BytesPerSecond network_throughput, Ratio ratio);

/// Eq. 3: communication saved relative to sending uncompressed.
SimSeconds saved_communication(Bytes size, BytesPerSecond network_throughput, Ratio ratio);

/// Eq. 4: minimal beneficial ratio, or nullopt when no finite ratio can
/// compensate for the compression cost on this network.
std::optional<Ratio> min_beneficial_ratio(BytesPerSecond network_throughput,
                                          const PrimitiveThroughputs& t);

/// End-to-end per-message time with compression (2x comp + compressed comm).
SimSeconds total_time_with_compression(Bytes size, BytesPerSecond network_throughput,
                                       Ratio ratio, const PrimitiveThroughputs& t);

/// Per-message time without compression.
SimSeconds total_time_uncompressed(Bytes size, BytesPerSecond network_throughput);

/// Convenience: convert link speed in Gbit/s to the model's byte
/// throughput. The /8 bit-to-byte step happens here, in one typed place.
constexpr BytesPerSecond gbps_to_bytes(double gbps) {
  return BytesPerSecond(gbps * 1e9 / 8.0);
}

}  // namespace fftgrad::perfmodel
