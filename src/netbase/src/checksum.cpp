#include "orion/netbase/checksum.hpp"

namespace orion::net {

namespace {

/// Big-endian 32-bit load: the concatenation of two 16-bit checksum words.
/// Adding it contributes w0 * 65536 + w1, and 65536 ≡ 1 (mod 65535), so
/// the folded one's-complement result is unchanged.
inline std::uint64_t load_be32(const std::uint8_t* p) {
  return (std::uint64_t{p[0]} << 24) | (std::uint64_t{p[1]} << 16) |
         (std::uint64_t{p[2]} << 8) | std::uint64_t{p[3]};
}

}  // namespace

void InternetChecksum::add_bytes_scalar(std::span<const std::uint8_t> data) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum_ += (std::uint16_t{data[i]} << 8) | data[i + 1];
  }
  if (i < data.size()) sum_ += std::uint16_t{data[i]} << 8;  // odd trailing byte
}

void InternetChecksum::add_bytes(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t s = sum_;
  while (n >= 8) {
    s += load_be32(p) + load_be32(p + 4);
    p += 8;
    n -= 8;
  }
  while (n >= 2) {
    s += (std::uint16_t{p[0]} << 8) | p[1];
    p += 2;
    n -= 2;
  }
  if (n > 0) s += std::uint16_t{p[0]} << 8;  // odd trailing byte
  sum_ = s;
}

std::uint16_t InternetChecksum::finalize() const {
  std::uint64_t folded = sum_;
  while (folded >> 16) folded = (folded & 0xFFFF) + (folded >> 16);
  return static_cast<std::uint16_t>(~folded & 0xFFFF);
}

std::uint16_t InternetChecksum::of(std::span<const std::uint8_t> data) {
  InternetChecksum c;
  c.add_bytes(data);
  return c.finalize();
}

std::uint16_t InternetChecksum::of_scalar(std::span<const std::uint8_t> data) {
  InternetChecksum c;
  c.add_bytes_scalar(data);
  return c.finalize();
}

}  // namespace orion::net
