// RFC 1071 Internet checksum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace orion::net {

/// One's-complement sum accumulator used by IPv4/TCP/UDP/ICMP checksums.
/// Feed byte ranges (and 16-bit words for pseudo-headers), then finalize().
///
/// add_bytes() sums two big-endian 32-bit loads per 8-byte step into the
/// 64-bit accumulator; each load is two 16-bit words, and 65536 ≡ 1
/// (mod 65535), so the final fold is unchanged. The original word-wise
/// accumulator is kept as add_bytes_scalar(), the reference the
/// equivalence tests pin against.
class InternetChecksum {
 public:
  void add_bytes(std::span<const std::uint8_t> data);
  /// Word-at-a-time reference accumulator (the original implementation).
  void add_bytes_scalar(std::span<const std::uint8_t> data);
  void add_word(std::uint16_t host_order_word) { sum_ += host_order_word; }

  /// Final folded, complemented checksum in host order.
  std::uint16_t finalize() const;

  /// Convenience one-shot checksum over a buffer.
  static std::uint16_t of(std::span<const std::uint8_t> data);
  /// One-shot reference checksum (equivalence-test baseline).
  static std::uint16_t of_scalar(std::span<const std::uint8_t> data);

 private:
  std::uint64_t sum_ = 0;
};

}  // namespace orion::net
