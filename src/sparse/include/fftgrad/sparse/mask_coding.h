// Wire encodings for the keep-mask that accompanies a packed sparse vector.
//
// The paper's status vector is a plain bitmap: n bits regardless of how
// sparse the data is, which caps the useful compression ratio near 20x
// (Fig 6). For very sparse masks an explicit index list — ceil(log2 n) bits
// per survivor — is smaller; the crossover is at density 1/ceil(log2 n).
// encode_mask() picks whichever is smaller and tags the choice, so the
// receiver is format-agnostic. This removes the Fig 6 ratio ceiling for
// theta > ~0.97 (see bench_fig06_status_overhead's extension columns).
#pragma once

#include <cstdint>
#include <vector>

#include "fftgrad/sparse/bitmap.h"
#include "fftgrad/util/taint.h"

namespace fftgrad::sparse {

enum class MaskEncoding : std::uint8_t { kBitmap = 0, kIndexList = 1 };

/// Bits needed to address positions in [0, n).
int index_bits(std::size_t n);

/// Size in bytes of each encoding for a mask of `n` bits with `kept` set.
std::size_t bitmap_encoding_bytes(std::size_t n);
std::size_t index_encoding_bytes(std::size_t n, std::size_t kept);

/// The cheaper encoding for the given shape.
MaskEncoding choose_mask_encoding(std::size_t n, std::size_t kept);

/// Size in bytes of encode_mask's output for the given shape: the tag byte
/// plus the cheaper payload.
std::size_t encoded_mask_bytes(std::size_t n, std::size_t kept);

/// Append `mask` to `out` in the cheaper encoding (1 tag byte + payload),
/// encoded_mask_bytes(mask.size(), mask.count()) bytes, so a codec writes
/// it straight into its packet.
void encode_mask(const Bitmap& mask, std::vector<std::uint8_t>& out);

/// Inverse of encode_mask; `n` is the mask length in bits. The payload is
/// wire input, so the parsed mask comes back Untrusted: release it through
/// a validator asserting the receiver's expectations (e.g. the survivor
/// count matches the payload that follows it in the packet).
util::Untrusted<Bitmap> decode_mask(std::span<const std::uint8_t> bytes, std::size_t n);

}  // namespace fftgrad::sparse
