#include "fftgrad/sparse/mask_coding.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <stdexcept>

namespace fftgrad::sparse {
namespace {

/// Write the set positions of `mask` below its size, ascending, `bits`
/// wide each and little-endian bit order, into the zeroed bytes at `out`.
void pack_indices(std::uint8_t* out, const Bitmap& mask, int bits) {
  const std::span<const std::uint64_t> words = mask.words();
  std::size_t bit_at = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
      const std::size_t value = 64 * w + static_cast<std::size_t>(std::countr_zero(word));
      if (value >= mask.size()) return;
      std::size_t byte = bit_at >> 3;
      const std::size_t offset = bit_at & 7;
      __uint128_t shifted = static_cast<__uint128_t>(value) << offset;
      for (int remaining = bits + static_cast<int>(offset); remaining > 0;
           remaining -= 8, shifted >>= 8, ++byte) {
        out[byte] |= static_cast<std::uint8_t>(shifted & 0xffu);
      }
      bit_at += static_cast<std::size_t>(bits);
    }
  }
}

std::vector<std::uint64_t> unpack_indices(std::span<const std::uint8_t> bytes, int bits,
                                          std::size_t count) {
  // Division form: `count * bits` can wrap for a wire-supplied count, which
  // would let a corrupt header pass the length check and read out of bounds.
  if (count > bytes.size() * 8 / static_cast<std::size_t>(bits)) {
    throw std::invalid_argument("decode_mask: truncated index payload");
  }
  std::vector<std::uint64_t> values(count);
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
  std::size_t bit_at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t byte = bit_at >> 3;
    const std::size_t offset = bit_at & 7;
    __uint128_t value = 0;
    const std::size_t span_bytes = (offset + static_cast<std::size_t>(bits) + 7) / 8;
    for (std::size_t b = 0; b < span_bytes; ++b) {
      value |= static_cast<__uint128_t>(bytes[byte + b]) << (8 * b);
    }
    values[i] = static_cast<std::uint64_t>(value >> offset) & mask;
    bit_at += static_cast<std::size_t>(bits);
  }
  return values;
}

}  // namespace

int index_bits(std::size_t n) {
  if (n <= 1) return 1;
  return 64 - std::countl_zero(static_cast<std::uint64_t>(n - 1));
}

std::size_t bitmap_encoding_bytes(std::size_t n) { return ((n + 63) / 64) * 8; }

std::size_t index_encoding_bytes(std::size_t n, std::size_t kept) {
  // 8-byte survivor count + packed indices.
  return 8 + (kept * static_cast<std::size_t>(index_bits(n)) + 7) / 8;
}

MaskEncoding choose_mask_encoding(std::size_t n, std::size_t kept) {
  return index_encoding_bytes(n, kept) < bitmap_encoding_bytes(n) ? MaskEncoding::kIndexList
                                                                  : MaskEncoding::kBitmap;
}

std::size_t encoded_mask_bytes(std::size_t n, std::size_t kept) {
  return 1 + std::min(bitmap_encoding_bytes(n), index_encoding_bytes(n, kept));
}

void encode_mask(const Bitmap& mask, std::vector<std::uint8_t>& out) {
  const std::size_t n = mask.size();
  const std::size_t kept = mask.count();
  const MaskEncoding encoding = choose_mask_encoding(n, kept);
  const std::size_t start = out.size();
  out.resize(start + encoded_mask_bytes(n, kept));
  std::uint8_t* dst = out.data() + start;
  dst[0] = static_cast<std::uint8_t>(encoding);
  if (encoding == MaskEncoding::kBitmap) {
    const auto words = mask.words();
    if (!words.empty()) std::memcpy(dst + 1, words.data(), words.size_bytes());
    return;
  }
  // Index list: survivor count then packed positions in ascending order.
  const std::uint64_t count = kept;
  std::memcpy(dst + 1, &count, sizeof(count));
  pack_indices(dst + 1 + sizeof(count), mask, index_bits(n));
}

util::Untrusted<Bitmap> decode_mask(std::span<const std::uint8_t> bytes, std::size_t n) {
  if (bytes.empty()) throw std::invalid_argument("decode_mask: empty payload");
  const auto encoding = static_cast<MaskEncoding>(bytes[0]);
  Bitmap mask(n);
  if (encoding == MaskEncoding::kBitmap) {
    auto words = mask.words();
    if (bytes.size() - 1 < words.size_bytes()) {
      throw std::invalid_argument("decode_mask: truncated bitmap payload");
    }
    std::uint64_t* dest = words.data();
    if (dest != nullptr) std::memcpy(dest, bytes.data() + 1, words.size_bytes());
    return util::untrusted(std::move(mask));
  }
  if (encoding != MaskEncoding::kIndexList) {
    throw std::invalid_argument("decode_mask: unknown encoding tag");
  }
  if (bytes.size() < 9) throw std::invalid_argument("decode_mask: truncated index header");
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + 1, sizeof(count));
  if (count > n) throw std::invalid_argument("decode_mask: survivor count exceeds length");
  const auto positions =
      unpack_indices(bytes.subspan(9), index_bits(n), static_cast<std::size_t>(count));
  for (std::uint64_t p : positions) {
    if (p >= n) throw std::invalid_argument("decode_mask: index out of range");
    mask.set(static_cast<std::size_t>(p));
  }
  return util::untrusted(std::move(mask));
}

}  // namespace fftgrad::sparse
