// PacketStreamGenerator with an explicit thread count and window size. The
// public constructor uses net::scan_threads(packets) threads and
// kWindowPackets; the stream is identical for every choice (pinned by
// tests/scangen_test.cpp). Internal to the scangen module.
#pragma once

#include <cstddef>

#include "orion/scangen/packet_gen.hpp"

namespace orion::scangen::detail {

/// Expected packets per simulated-time window. The window's run buffers
/// then hold about 3.3 MB (40-byte packets, reserved at 1.25x the
/// expected count), and the 4-day paper-scaled ingest feed takes 66
/// windows.
inline constexpr std::size_t kWindowPackets = std::size_t{1} << 16;

struct PacketGenShape {
  /// Sub-stream ranges, each generated on a thread of its own; 0 picks
  /// net::scan_threads(packets in the stream).
  std::size_t threads = 0;
  /// Expected packets per simulated-time window (at least 1).
  std::size_t window_packets = kWindowPackets;
};

}  // namespace orion::scangen::detail
