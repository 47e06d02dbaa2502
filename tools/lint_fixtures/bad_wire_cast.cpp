// Seeded violation: ad-hoc byte reinterpretation of a received payload
// outside the designated wire codec files — the overflow/aliasing bug
// class the wire::put/wire::put_span/wire::Reader primitives exist to
// contain.
// LINT-EXPECT: wire-cast-outside-wire
// LINT-EXPECT: wire-cast-outside-wire
#include <cstdint>
#include <cstring>
#include <vector>

float fixture_first_float(const std::vector<std::uint8_t>& payload) {
  const auto* values = reinterpret_cast<const float*>(payload.data());
  float out = 0.0f;
  std::memcpy(&out, values, sizeof(out));
  return out;
}
