#include "fftgrad/core/chunked_compressor.h"

#include <stdexcept>

namespace fftgrad::core {

ChunkedCompressor::ChunkedCompressor(InnerFactory factory, std::size_t chunk_elements)
    : factory_(std::move(factory)), chunk_elements_(chunk_elements) {
  if (!factory_) throw std::invalid_argument("ChunkedCompressor: null factory");
  if (chunk_elements_ == 0) {
    throw std::invalid_argument("ChunkedCompressor: chunk_elements must be > 0");
  }
}

GradientCompressor& ChunkedCompressor::codec_for(std::size_t chunk) {
  while (codecs_.size() <= chunk) {
    codecs_.push_back(factory_(codecs_.size()));
    if (!codecs_.back()) throw std::logic_error("ChunkedCompressor: factory returned null");
    if (theta_set_) codecs_.back()->set_theta(theta_);
  }
  return *codecs_[chunk];
}

std::string ChunkedCompressor::name() const {
  const std::string inner =
      codecs_.empty() ? std::string("?") : codecs_.front()->name();
  return "chunked(" + std::to_string(chunk_elements_) + ")[" + inner + "]";
}

void ChunkedCompressor::set_theta(double theta) {
  theta_ = theta;
  theta_set_ = true;
  for (auto& codec : codecs_) codec->set_theta(theta);
}

double ChunkedCompressor::theta() const {
  return codecs_.empty() ? theta_ : codecs_.front()->theta();
}

double ChunkedCompressor::modeled_seconds_per_byte(
    const perfmodel::PrimitiveThroughputs& t) const {
  // Per-byte cost matches the inner codec's; chunking changes latency
  // structure (overlap opportunity), not the per-byte pipeline work.
  if (!codecs_.empty()) return codecs_.front()->modeled_seconds_per_byte(t);
  // No chunk seen yet: create a throwaway instance to ask.
  return factory_(0)->modeled_seconds_per_byte(t);
}

Packet ChunkedCompressor::compress(std::span<const float> gradient) {
  Packet packet;
  packet.elements = gradient.size();
  const std::size_t chunks =
      gradient.empty() ? 0 : (gradient.size() + chunk_elements_ - 1) / chunk_elements_;
  // Every chunk's packet first, so the whole one is sized once.
  std::vector<Packet> inner(chunks);
  std::size_t size = 2 * sizeof(std::uint64_t);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_elements_;
    const std::size_t len = std::min(chunk_elements_, gradient.size() - begin);
    inner[c] = codec_for(c).compress(gradient.subspan(begin, len));
    size += sizeof(std::uint64_t) + inner[c].bytes.size();
  }
  packet.bytes.reserve(size);
  wire::put<std::uint64_t>(packet.bytes, gradient.size());
  wire::put<std::uint64_t>(packet.bytes, chunks);
  for (const Packet& chunk : inner) {
    wire::put<std::uint64_t>(packet.bytes, chunk.bytes.size());
    wire::put_span<std::uint8_t>(packet.bytes, chunk.bytes);
  }
  return packet;
}

void ChunkedCompressor::decompress(const Packet& packet, std::span<float> out) {
  if (out.size() != packet.elements) {
    throw std::invalid_argument("ChunkedCompressor: output size mismatch");
  }
  if (packet.elements == 0) return;
  wire::Reader reader(packet.bytes);
  const auto total = static_cast<std::size_t>(reader.get<std::uint64_t>());
  if (total != packet.elements) throw std::runtime_error("ChunkedCompressor: corrupt packet");
  const auto chunks = static_cast<std::size_t>(reader.get<std::uint64_t>());
  // The chunk count is implied by (total, chunk_elements_); a wire value
  // that disagrees would drive begin past `total` (underflowing `len`) and
  // spin up one codec instance per claimed chunk.
  if (chunks != (total + chunk_elements_ - 1) / chunk_elements_) {
    throw std::runtime_error("ChunkedCompressor: corrupt chunk count");
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_elements_;
    const std::size_t len = std::min(chunk_elements_, total - begin);
    Packet inner;
    inner.elements = len;
    // get_count: reject per-chunk sizes larger than the bytes actually
    // present instead of allocating a corrupt 64-bit length.
    inner.bytes.resize(reader.get_count(1));
    reader.get_span<std::uint8_t>(inner.bytes);
    codec_for(c).decompress(inner, out.subspan(begin, len));
  }
}

}  // namespace fftgrad::core
