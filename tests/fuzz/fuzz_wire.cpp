// Structure-aware fuzzing of the standalone wire-parsing primitives: the
// collective packet framing that SimCluster moves between ranks, the
// replica-state blob (rejoin transfer and trainer checkpoint), the mask
// codec, the packed-code reader, and wire::Reader itself. These are the
// layers a corrupt length field reaches first — each must reject with an
// exception before any length-derived read or allocation happens.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "fftgrad/analysis/causality.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/compressor.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/replica.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/quant/range_float.h"
#include "fftgrad/sparse/mask_coding.h"

#include "fuzz_common.h"

namespace {

using fftgrad::core::Packet;
namespace wire = fftgrad::core::wire;

TEST(FuzzWire, PacketFramingNeverCrashes) {
  // The frames SimCluster's allgather actually carries: magic + CRC-32 +
  // u64 element count + opaque codec payload, parsed on receipt with the
  // sender's count checked against the local gradient size.
  constexpr std::size_t kElements = 128;
  fftgrad::fuzz::Xorshift payload_rng(0x5eedf00d);
  std::vector<std::vector<std::uint8_t>> corpus;
  for (std::size_t payload_bytes : {0u, 17u, 300u}) {
    Packet packet;
    packet.elements = kElements;
    packet.bytes.resize(payload_bytes);
    for (auto& b : packet.bytes) b = static_cast<std::uint8_t>(payload_rng.next());
    corpus.push_back(wire::frame_packet(packet));
  }

  std::size_t mismatches = 0;
  const auto stats =
      fftgrad::fuzz::drive(corpus, 0xf4a3e5, [&](const std::vector<std::uint8_t>& bytes) {
        try {
          // A decoded frame must be internally consistent; the release
          // validator is the consistency check.
          const Packet packet =
              wire::unframe_packet(bytes, kElements)
                  .release(
                      [&](const Packet& p) {
                        return p.elements == kElements &&
                               p.bytes.size() == bytes.size() - wire::kFrameHeaderBytes;
                      },
                      "fuzzed packet");
          ASSERT_EQ(packet.elements, kElements);
        } catch (...) {
          ++mismatches;
          throw;
        }
      });
  EXPECT_GT(stats.decoded, 0u);
  EXPECT_EQ(stats.rejected, mismatches);
}

TEST(FuzzWire, FrameChecksumCatchesEveryBitFlip) {
  // The fault-injection corruption model flips 1-4 bits of a frame in
  // flight; graceful degradation in cluster_train depends on every such
  // flip surfacing as a parse failure, never as a silently different
  // gradient. Exhaustively flip each single bit, then spray random 2-4 bit
  // patterns: unframe_packet must reject all of them.
  Packet packet;
  packet.elements = 96;
  packet.bytes.resize(250);
  fftgrad::fuzz::Xorshift rng(0xc4cf11b);
  for (auto& b : packet.bytes) b = static_cast<std::uint8_t>(rng.next());
  const std::vector<std::uint8_t> frame = wire::frame_packet(packet);
  ASSERT_NO_THROW((void)wire::unframe_packet(frame, packet.elements));

  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<std::uint8_t> flipped = frame;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW((void)wire::unframe_packet(flipped, packet.elements), std::runtime_error)
        << "accepted a frame with bit " << bit << " flipped";
  }

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> flipped = frame;
    const std::size_t flips = 2 + rng.below(3);  // 2-4 bits, CRC-32 detects all
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = rng.below(flipped.size() * 8);
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    if (flipped == frame) continue;  // flips may cancel pairwise
    EXPECT_THROW((void)wire::unframe_packet(flipped, packet.elements), std::runtime_error);
  }
}

TEST(FuzzWire, AnalysisTrailerNeverCrashes) {
  // The causality-analysis trailer (fftgrad/analysis/causality.h) rides
  // inside the checksummed frame region, but decode_trailer must stand on
  // its own: its u64 rank count is a `count * 8` allocation vector exactly
  // like the codec headers', and a hostile count must be rejected before
  // any component read.
  namespace analysis = fftgrad::analysis;
  std::vector<std::vector<std::uint8_t>> corpus;
  for (std::size_t ranks : {0u, 1u, 4u, 16u}) {
    analysis::AnalysisTrailer trailer;
    trailer.sender = static_cast<std::uint32_t>(ranks);
    trailer.epoch = 17 + ranks;
    std::vector<std::uint64_t> components(ranks);
    for (std::size_t r = 0; r < ranks; ++r) components[r] = r * 3 + 1;
    trailer.clock = analysis::VectorClock(std::move(components));
    corpus.push_back(analysis::encode_trailer(trailer));
  }

  const auto stats =
      fftgrad::fuzz::drive(corpus, 0xca05a117, [](const std::vector<std::uint8_t>& bytes) {
        // A decoded trailer must re-encode to the identical bytes: the
        // format has exactly one representation per value.
        const analysis::AnalysisTrailer trailer =
            analysis::decode_trailer(bytes).release(
                [&](const analysis::AnalysisTrailer& t) {
                  return analysis::encode_trailer(t) == bytes;
                },
                "fuzzed trailer");
        ASSERT_EQ(analysis::encode_trailer(trailer), bytes);
      });
  EXPECT_GT(stats.decoded, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

TEST(FuzzWire, FramedTrailerNeverCrashes) {
  // The combined path a received collective block actually takes in
  // analysis builds: unframe (CRC gate), then decode the carried trailer.
  namespace analysis = fftgrad::analysis;
  constexpr std::size_t kElements = 64;
  analysis::AnalysisTrailer trailer;
  trailer.sender = 3;
  trailer.epoch = 12;
  trailer.clock = analysis::VectorClock(std::vector<std::uint64_t>{4, 0, 9, 12});

  fftgrad::fuzz::Xorshift payload_rng(0x7a11e4);
  std::vector<std::vector<std::uint8_t>> corpus;
  for (std::size_t payload_bytes : {0u, 33u, 200u}) {
    Packet packet;
    packet.elements = kElements;
    packet.bytes.resize(payload_bytes);
    for (auto& b : packet.bytes) b = static_cast<std::uint8_t>(payload_rng.next());
    corpus.push_back(wire::frame_packet(packet, analysis::encode_trailer(trailer)));
  }

  const auto stats =
      fftgrad::fuzz::drive(corpus, 0xf4a3e6, [&](const std::vector<std::uint8_t>& bytes) {
        const wire::WireFrame frame =
            wire::unframe_frame(bytes, kElements)
                .release([&](const wire::WireFrame& f) { return f.packet.elements == kElements; },
                         "fuzzed frame");
        if (!frame.trailer.empty()) {
          const analysis::AnalysisTrailer decoded =
              analysis::decode_trailer(frame.trailer)
                  .release([&](const analysis::AnalysisTrailer& t) {
                    return t.sender == trailer.sender && t.clock == trailer.clock;
                  }, "carried trailer");
          ASSERT_EQ(decoded.sender, trailer.sender);
          ASSERT_EQ(decoded.epoch, trailer.epoch);
          ASSERT_EQ(decoded.clock, trailer.clock);
        }
      });
  // The CRC makes a surviving mutation astronomically unlikely, so the
  // pristine entries dominate `decoded`; the point is that nothing escapes
  // as a crash or a silently different trailer.
  EXPECT_GT(stats.decoded, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

namespace core = fftgrad::core;

/// The receiving side of a state blob: a small replica whose one
/// error-feedback codec and momentum are populated by one BSP step.
struct StateReceiver {
  fftgrad::nn::SyntheticDataset data{{4}, 2, 23};
  fftgrad::nn::Network model;
  core::Replica replica;
  std::vector<std::unique_ptr<core::GradientCompressor>> codecs;

  StateReceiver() : model(make_model()), replica(model, 0.9f) {
    codecs.push_back(std::make_unique<core::ErrorFeedbackCompressor>(
        std::make_unique<core::TopKCompressor>(0.5)));
    fftgrad::util::Rng batches = core::batch_stream(1, 0);
    (void)replica.forward(data.sample(4, batches));
    replica.backward();
    const std::optional<wire::WireFrame> frames[] = {
        wire::WireFrame{replica.compress(*codecs[0], [](const Packet&) {}), {}}};
    (void)replica.average(*codecs[0], frames);
    replica.apply(0.1f);
  }

  static fftgrad::nn::Network make_model() {
    fftgrad::util::Rng rng(41);
    return fftgrad::nn::models::make_mlp(4, 6, 1, 2, rng);
  }

  bool fits(const core::RejoinBlob& blob) { return blob.fits(replica, codecs); }

  core::RejoinBlob blob(bool with_snapshot) {
    core::RejoinBlob blob;
    blob.state.capture(5, replica, codecs);
    blob.theta = 0.5;
    blob.controller_state = {1, 2, 3};
    if (with_snapshot) blob.snapshot = blob.state;
    return blob;
  }
};

TEST(FuzzWire, StateBlobNeverCrashesOrReleasesCorruption) {
  // The rejoin blob and the trainer checkpoint share one framing and one
  // parse (fftgrad/core/replica.h): a CRC frame around a ReplicaState-led
  // payload. A mutated blob must be rejected by the parse; only an input
  // identical to a valid blob may ever reach the shape-checking release.
  StateReceiver receiver;
  const std::vector<std::vector<std::uint8_t>> corpus = {
      core::frame_state(receiver.blob(false)), core::frame_state(receiver.blob(true))};
  const auto stats =
      fftgrad::fuzz::drive(corpus, 0x57a7e5, [&](const std::vector<std::uint8_t>& bytes) {
        const core::RejoinBlob blob =
            core::parse_state<core::RejoinBlob>(bytes).release(
                [&](const core::RejoinBlob& b) { return receiver.fits(b); }, "fuzzed state");
        ASSERT_NE(std::find(corpus.begin(), corpus.end(), bytes), corpus.end())
            << "released a blob that is not one of the valid encodings";
        ASSERT_EQ(blob.state.params.size(), receiver.replica.size());
      });
  EXPECT_GT(stats.decoded, 0u);
  EXPECT_GT(stats.rejected, 0u);

  core::TrainerCheckpoint ckpt;
  ckpt.state.capture(3, receiver.replica, receiver.codecs);
  ckpt.rng_states.push_back({1, 2, 3, 4, 5, 6});
  ckpt.epochs.resize(3);
  const std::vector<std::vector<std::uint8_t>> checkpoints = {core::frame_state(ckpt)};
  const auto ckpt_stats = fftgrad::fuzz::drive(
      checkpoints, 0xc4ec4, [&](const std::vector<std::uint8_t>& bytes) {
        (void)core::parse_state<core::TrainerCheckpoint>(bytes).release(
            [&](const core::TrainerCheckpoint& c) {
              return c.fits(receiver.replica, receiver.codecs);
            },
            "fuzzed checkpoint");
        ASSERT_EQ(bytes, checkpoints.front())
            << "released a checkpoint that is not the valid encoding";
      });
  EXPECT_GT(ckpt_stats.decoded, 0u);
  EXPECT_GT(ckpt_stats.rejected, 0u);
}

TEST(FuzzWire, StateBlobParseRejectsEveryBitFlipTruncationAndRandomBuffer) {
  StateReceiver receiver;
  const std::vector<std::uint8_t> blob = core::frame_state(receiver.blob(true));
  ASSERT_NO_THROW((void)core::parse_state<core::RejoinBlob>(blob));
  const auto rejected = [](const std::vector<std::uint8_t>& bytes) {
    try {
      (void)core::parse_state<core::RejoinBlob>(bytes);
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
  for (std::size_t bit = 0; bit < blob.size() * 8; ++bit) {
    std::vector<std::uint8_t> flipped = blob;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_TRUE(rejected(flipped)) << "accepted a blob with bit " << bit << " flipped";
  }
  for (std::size_t length = 0; length < blob.size(); ++length) {
    EXPECT_TRUE(rejected(std::vector<std::uint8_t>(blob.begin(), blob.begin() + length)))
        << "accepted a blob truncated to " << length << " bytes";
  }
  fftgrad::fuzz::Xorshift rng(0x5a4d0b);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> noise(rng.below(2 * blob.size()));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_TRUE(rejected(noise)) << "accepted random buffer " << trial;
  }
}

TEST(FuzzWire, StateBlobReleaseRejectsMismatchedShapes) {
  // A CRC-valid blob parses; its shapes are the release's to check against
  // the receiving replica, before anything is installed.
  StateReceiver receiver;
  const auto expect_rejected_at_release = [&](const char* what,
                                              void (*damage)(core::RejoinBlob&)) {
    core::RejoinBlob blob = receiver.blob(true);
    damage(blob);
    fftgrad::util::Untrusted<core::RejoinBlob> parsed =
        core::parse_state<core::RejoinBlob>(core::frame_state(blob));
    EXPECT_THROW((void)std::move(parsed).release(
                     [&](const core::RejoinBlob& b) { return receiver.fits(b); }, "state"),
                 std::invalid_argument)
        << what;
  };
  expect_rejected_at_release("parameter count", [](core::RejoinBlob& b) {
    b.state.params.push_back(0.0f);
  });
  expect_rejected_at_release("momentum tensor count", [](core::RejoinBlob& b) {
    b.state.velocity.pop_back();
  });
  expect_rejected_at_release("momentum tensor length", [](core::RejoinBlob& b) {
    b.state.velocity.front().resize(1);
  });
  expect_rejected_at_release("residual count", [](core::RejoinBlob& b) {
    b.state.residuals.push_back({});
  });
  expect_rejected_at_release("residual length", [](core::RejoinBlob& b) {
    b.state.residuals.front().pop_back();
  });
  expect_rejected_at_release("snapshot momentum", [](core::RejoinBlob& b) {
    b.snapshot->velocity.back().push_back(0.0f);
  });

  // A residual with no error-feedback codec behind it.
  core::RejoinBlob blob = receiver.blob(false);
  std::vector<std::unique_ptr<core::GradientCompressor>> plain;
  plain.push_back(std::make_unique<core::TopKCompressor>(0.5));
  EXPECT_THROW((void)core::parse_state<core::RejoinBlob>(core::frame_state(blob))
                   .release([&](const core::RejoinBlob& b) {
                     return b.fits(receiver.replica, plain);
                   }),
               std::invalid_argument);
}

TEST(FuzzWire, MaskDecodingNeverCrashes) {
  // Both encodings in the corpus: a dense mask serializes as a bitmap, a
  // sparse one as tag + u64 survivor count + packed indices. The count
  // field is the classic `count * bits` overflow vector.
  constexpr std::size_t kBits = 500;
  fftgrad::sparse::Bitmap dense(kBits);
  for (std::size_t i = 0; i < kBits; i += 2) dense.set(i);
  fftgrad::sparse::Bitmap sparse_mask(kBits);
  for (std::size_t i = 0; i < kBits; i += 97) sparse_mask.set(i);
  std::vector<std::vector<std::uint8_t>> corpus(2);
  fftgrad::sparse::encode_mask(dense, corpus[0]);
  fftgrad::sparse::encode_mask(sparse_mask, corpus[1]);
  ASSERT_EQ(corpus[0][0], static_cast<std::uint8_t>(fftgrad::sparse::MaskEncoding::kBitmap));
  ASSERT_EQ(corpus[1][0], static_cast<std::uint8_t>(fftgrad::sparse::MaskEncoding::kIndexList));

  const auto stats =
      fftgrad::fuzz::drive(corpus, 0xb17a945, [&](const std::vector<std::uint8_t>& bytes) {
        const fftgrad::sparse::Bitmap mask =
            fftgrad::sparse::decode_mask(bytes, kBits)
                .release([&](const fftgrad::sparse::Bitmap& m) {
                  return m.size() == kBits && m.count() <= kBits;
                }, "fuzzed mask");
        ASSERT_EQ(mask.size(), kBits);
      });
  EXPECT_GT(stats.decoded, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

TEST(FuzzWire, PackedCodeStreamNeverCrashes) {
  // The quantized-coefficient stream as FftCompressor writes it: u64 code
  // count + bit-packed codes. A receiver sizes its code buffer from what it
  // expects; here that is the header's count, capped as a receiver's model
  // caps it. unpack_codes must reject any stream too short for the buffer
  // before it reads past the bytes.
  constexpr int kBitsPerCode = 10;
  constexpr std::size_t kMaxCodes = 4096;
  std::vector<std::vector<std::uint8_t>> corpus;
  fftgrad::fuzz::Xorshift code_rng(0xc0de5eed);
  for (std::size_t count : {1u, 37u, 200u}) {
    std::vector<std::uint32_t> codes(count);
    for (auto& c : codes) c = static_cast<std::uint32_t>(code_rng.below(1u << kBitsPerCode));
    std::vector<std::uint8_t> bytes;
    wire::put<std::uint64_t>(bytes, count);
    fftgrad::quant::pack_codes(codes, kBitsPerCode, bytes);
    corpus.push_back(std::move(bytes));
  }

  const auto stats =
      fftgrad::fuzz::drive(corpus, 0x9ac4ed, [&](const std::vector<std::uint8_t>& bytes) {
        wire::Reader reader(bytes);
        const auto count = static_cast<std::size_t>(reader.get<std::uint64_t>());
        if (count > kMaxCodes) throw std::length_error("code count above the receiver's model");
        std::vector<std::uint32_t> buffer(count);
        const std::span<const std::uint32_t> codes =
            fftgrad::quant::unpack_codes(reader.get_bytes(reader.remaining()), kBitsPerCode,
                                         buffer)
                .release([&](std::span<const std::uint32_t> c) { return c.size() == count; },
                         "fuzzed codes");
        ASSERT_EQ(codes.size(), count);
        for (std::uint32_t c : codes) ASSERT_LT(c, 1u << kBitsPerCode);
      });
  EXPECT_GT(stats.decoded, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

TEST(FuzzWire, ReaderFieldSequenceNeverCrashes) {
  // Generic Reader torture: a fixed field script (scalars, counted span,
  // trailing span) over mutated buffers. get_count's division guard is the
  // piece that turns a smashed u64 into an exception instead of an OOM.
  std::vector<std::uint8_t> valid;
  // Reserve the exact frame size up front (also sidesteps a GCC 12
  // -Wstringop-overflow false positive on the growing inserts).
  valid.reserve(sizeof(std::uint32_t) + sizeof(std::uint64_t) + 24 * sizeof(float) +
                sizeof(std::uint16_t));
  wire::put<std::uint32_t>(valid, 0xfeedbeef);
  wire::put<std::uint64_t>(valid, 24);  // element count for the f32 span
  std::vector<float> floats(24, 1.5f);
  wire::put_span<const float>(valid, floats);
  wire::put<std::uint16_t>(valid, 7);
  std::vector<std::vector<std::uint8_t>> corpus = {valid};

  const auto stats =
      fftgrad::fuzz::drive(corpus, 0x4ead5eed, [&](const std::vector<std::uint8_t>& bytes) {
        wire::Reader reader(bytes);
        (void)reader.get<std::uint32_t>();
        const std::size_t count = reader.get_count(sizeof(float));
        std::vector<float> values(count);
        reader.get_span<float>(values);
        (void)reader.get<std::uint16_t>();
      });
  EXPECT_GT(stats.decoded, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

}  // namespace
