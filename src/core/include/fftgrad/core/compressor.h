// GradientCompressor: the lossy gradient codec interface of the framework.
//
// compress() maps a flat float32 gradient to a self-describing wire packet;
// decompress() reconstructs an approximation of the original vector. The
// packet's byte size is what the communication layer charges for, so
// wire_bytes()/ratio() are the quantities behind every wall-time result.
//
// Implementations: FftCompressor (the paper's method, Sec 3), and the
// published baselines TopKCompressor, QsgdCompressor, TernGradCompressor,
// NoopCompressor (lossless SGD).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fftgrad/perfmodel/cost_model.h"
#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/util/crc32.h"
#include "fftgrad/util/taint.h"

namespace fftgrad::core {

/// Self-describing compressed gradient.
struct Packet {
  std::vector<std::uint8_t> bytes;  ///< wire payload, including metadata
  std::size_t elements = 0;         ///< original gradient length

  std::size_t wire_bytes() const { return bytes.size(); }
  /// Achieved compression ratio vs. float32.
  double ratio() const {
    return bytes.empty() ? 0.0
                         : static_cast<double>(elements * sizeof(float)) /
                               static_cast<double>(bytes.size());
  }
};

/// Telemetry hook called by every *leaf* codec as its compress() returns
/// (wrappers like ErrorFeedback/Chunked must not call it again, or bytes
/// would double-count): accumulates raw vs wire byte totals and the
/// per-packet ratio histogram. No-op unless metrics collection is enabled.
inline void record_codec_packet(std::size_t gradient_elements, const Packet& packet) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  if (!registry.enabled()) return;
  static telemetry::Counter& raw_bytes = registry.counter("codec.raw_bytes");
  static telemetry::Counter& wire_bytes = registry.counter("codec.wire_bytes");
  static telemetry::Histogram& ratio = registry.histogram("codec.ratio");
  raw_bytes.add(static_cast<double>(gradient_elements * sizeof(float)));
  wire_bytes.add(static_cast<double>(packet.wire_bytes()));
  ratio.observe(packet.ratio());
}

class GradientCompressor {
 public:
  virtual ~GradientCompressor() = default;

  virtual std::string name() const = 0;

  virtual Packet compress(std::span<const float> gradient) = 0;

  /// Reconstruct into `out` (must have packet.elements entries).
  virtual void decompress(const Packet& packet, std::span<float> out) = 0;

  /// Sparsification ratio theta in [0, 1) for tunable compressors (the
  /// fraction of information dropped); no-ops for quantizers without one.
  virtual void set_theta(double /*theta*/) {}
  virtual double theta() const { return 0.0; }

  /// Modelled one-sided codec cost per input byte on GPU-class hardware
  /// (the Sec 3.3 cost model, specialized per algorithm's pipeline). Both
  /// trainers charge it under a perfmodel::ComputeModel; the default
  /// charges one elementwise pass at the conversion throughput.
  virtual double modeled_seconds_per_byte(
      const perfmodel::PrimitiveThroughputs& t) const {
    return 1.0 / t.conversion.to_double();
  }
};

// ---------------------------------------------------------------------------
// Wire-format helpers (append/consume PODs to a byte vector).

namespace wire {

// Appends grow the vector, then copy: GCC 12 reports false -Warray-bounds
// and -Wstringop-overflow on vector::insert of a few bytes.
template <typename T>
void put(std::vector<std::uint8_t>& bytes, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = bytes.size();
  bytes.resize(at + sizeof(T));
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

template <typename T>
void put_span(std::vector<std::uint8_t>& bytes, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  // An empty span may carry a null pointer, which memcpy must not see.
  if (values.empty()) return;
  const std::size_t at = bytes.size();
  bytes.resize(at + values.size_bytes());
  std::memcpy(bytes.data() + at, values.data(), values.size_bytes());
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (at_ + sizeof(T) > bytes_.size()) throw std::runtime_error("wire: truncated packet");
    T value;
    std::memcpy(&value, bytes_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return value;
  }

  template <typename T>
  void get_span(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    // An empty span may carry a null pointer, which memcpy must not see.
    if (out.empty()) return;
    if (at_ + out.size_bytes() > bytes_.size()) throw std::runtime_error("wire: truncated packet");
    std::memcpy(out.data(), bytes_.data() + at_, out.size_bytes());
    at_ += out.size_bytes();
  }

  /// The next `count` bytes, consumed, as a view into the packet (valid
  /// while the packet's bytes are).
  std::span<const std::uint8_t> get_bytes(std::size_t count) {
    if (count > remaining()) throw std::runtime_error("wire: truncated packet");
    const std::span<const std::uint8_t> view = bytes_.subspan(at_, count);
    at_ += count;
    return view;
  }

  std::size_t remaining() const { return bytes_.size() - at_; }

  /// Read a u64 element count whose `elem_size`-byte payload must still fit
  /// in the packet. Rejecting oversized counts here keeps a corrupted size
  /// field from driving a huge allocation before the payload read would
  /// have failed anyway.
  std::size_t get_count(std::size_t elem_size) {
    const auto count = static_cast<std::size_t>(get<std::uint64_t>());
    if (elem_size != 0 && count > remaining() / elem_size) {
      throw std::runtime_error("wire: corrupt size field");
    }
    return count;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
};

// ---------------------------------------------------------------------------
// Packet framing: the on-the-wire shape of one compressed gradient as it
// travels through a collective — a magic tag, a CRC-32 over everything
// after the checksum field, a u64 element count, a u32 trailer length,
// the optional analysis trailer, then the codec payload. Every cross-rank
// packet exchange must use this pair so the framing has exactly one
// definition (and one fuzz target). The checksum turns wire corruption
// (comm::FaultPlan bit flips, or a real fabric misbehaving) into a
// deterministic parse failure at the receiver instead of a silently-wrong
// gradient — the degradation path cluster_train relies on.
//
// The trailer slot carries causality-analysis evidence (the sender's
// vector clock and collective epoch; fftgrad/analysis/causality.h) in
// FFTGRAD_ANALYSIS builds and is empty (length 0) otherwise; it sits
// inside the checksummed region, so a corrupted trailer is rejected with
// the same determinism as a corrupted payload. Frames are a transient
// exchange format, never persisted, so build modes may legitimately
// differ in whether the slot is filled — the shape is identical.

inline constexpr std::uint32_t kFrameMagic = 0x46474632u;  // "FGF2"
inline constexpr std::size_t kFrameHeaderBytes =
    3 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

/// A parsed frame: the codec packet plus whatever analysis trailer rode
/// along (empty when the sender attached none).
struct WireFrame {
  Packet packet;
  std::vector<std::uint8_t> trailer;
};

/// Serialize `packet` (and an optional analysis trailer) into its
/// collective wire frame.
inline std::vector<std::uint8_t> frame_packet(const Packet& packet,
                                              std::span<const std::uint8_t> trailer = {}) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + trailer.size() + packet.bytes.size());
  put<std::uint32_t>(frame, kFrameMagic);
  put<std::uint32_t>(frame, 0);  // checksum patched below
  put<std::uint64_t>(frame, packet.elements);
  put<std::uint32_t>(frame, static_cast<std::uint32_t>(trailer.size()));
  put_span<std::uint8_t>(frame, trailer);
  put_span<std::uint8_t>(frame, packet.bytes);
  const std::uint32_t crc =
      util::crc32(std::span<const std::uint8_t>(frame).subspan(2 * sizeof(std::uint32_t)));
  std::memcpy(frame.data() + sizeof(std::uint32_t), &crc, sizeof(crc));
  return frame;
}

namespace detail {

/// Structural parse shared by the two tainted entry points below. Not a
/// public decode entry: callers outside this header go through
/// unframe_frame()/unframe_packet() and receive an Untrusted wrapper.
inline WireFrame unframe_frame_impl(std::span<const std::uint8_t> frame,
                                    std::size_t expected_elements) {
  Reader reader(frame);
  if (reader.get<std::uint32_t>() != kFrameMagic) {
    throw std::runtime_error("wire: bad frame magic");
  }
  const auto expected_crc = reader.get<std::uint32_t>();
  const std::uint32_t actual_crc = util::crc32(frame.subspan(2 * sizeof(std::uint32_t)));
  if (actual_crc != expected_crc) {
    throw std::runtime_error("wire: frame checksum mismatch");
  }
  WireFrame result;
  result.packet.elements = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (expected_elements != 0 && result.packet.elements != expected_elements) {
    throw std::runtime_error("wire: peer gradient size mismatch");
  }
  const auto trailer_bytes = reader.get<std::uint32_t>();
  if (trailer_bytes > reader.remaining()) {
    throw std::runtime_error("wire: corrupt trailer length");
  }
  result.trailer.resize(trailer_bytes);
  reader.get_span<std::uint8_t>(result.trailer);
  result.packet.bytes.resize(reader.remaining());
  reader.get_span<std::uint8_t>(result.packet.bytes);
  return result;
}

}  // namespace detail

/// Parse a frame produced by frame_packet(). Throws std::runtime_error on a
/// truncated frame, a bad magic, a checksum mismatch (any flipped bit), a
/// trailer length that does not fit, or when the element count disagrees
/// with `expected_elements` (pass 0 to accept any count).
///
/// The frame is wire input: the structural checks above prove the bytes are
/// well-formed, not that they match what *this receiver* expects, so the
/// result is Untrusted and must be released through a validator encoding
/// the caller's expectations (element count vs the model, trailer shape).
inline util::Untrusted<WireFrame> unframe_frame(std::span<const std::uint8_t> frame,
                                                std::size_t expected_elements = 0) {
  return util::untrusted(detail::unframe_frame_impl(frame, expected_elements));
}

/// Trailer-discarding convenience for callers that only want the packet.
inline util::Untrusted<Packet> unframe_packet(std::span<const std::uint8_t> frame,
                                              std::size_t expected_elements = 0) {
  return util::untrusted(detail::unframe_frame_impl(frame, expected_elements).packet);
}

}  // namespace wire
}  // namespace fftgrad::core
