// DESIGN.md §14 equivalence contract for the one tier-dispatched kernel:
// the CRC-32 fold must produce bit-identical results to the byte-at-a-time
// reference at every tier the machine can run, for every length class
// (empty, single byte, around the 8/16/64-byte strides, large buffers)
// and any chunking. The suite force-sets each available tier, and also
// checks the tier plumbing itself, the batch-column alignment, and that
// the batch classifiers (plain loops, no dispatch) give the per-record
// cores' answers whatever tier is active.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "orion/netbase/aligned.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/netbase/rng.hpp"
#include "orion/netbase/simd.hpp"
#include "orion/packet/batch.hpp"
#include "orion/packet/builder.hpp"
#include "orion/packet/classify.hpp"
#include "orion/packet/fingerprint.hpp"

namespace {

using namespace orion;
namespace simd = net::simd;

/// Restores the dispatch tier active at construction (tests force tiers).
struct TierGuard {
  simd::Level saved = simd::active_level();
  ~TierGuard() { simd::set_level(saved); }
};

/// Lengths hitting every boundary class of the 8-byte slicing and the
/// 16/64-byte fold strides.
const std::vector<std::size_t> kLengths = {0,  1,  2,  7,  8,   15,  16,  17,
                                           31, 32, 33, 63, 64,  65,  100, 255,
                                           256, 257, 1000, 4096, 65537};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  net::Rng rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

TEST(SimdDispatch, LevelPlumbing) {
  TierGuard guard;
  const auto tiers = simd::available_levels();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Level::Scalar);
  for (const simd::Level tier : tiers) {
    EXPECT_EQ(simd::set_level(tier), tier);
    EXPECT_EQ(simd::active_level(), tier);
  }
  // Requesting a foreign-ISA or unsupported tier clamps, never raises.
  const simd::Level got = simd::set_level(simd::Level::Neon);
  EXPECT_LE(static_cast<int>(got), static_cast<int>(simd::detected_level()));
  EXPECT_FALSE(simd::feature_string().empty());
}

TEST(SimdDispatch, ParseLevel) {
  simd::Level level;
  EXPECT_TRUE(simd::parse_level("scalar", level));
  EXPECT_EQ(level, simd::Level::Scalar);
  EXPECT_TRUE(simd::parse_level("sse42", level));
  EXPECT_EQ(level, simd::Level::Sse42);
  EXPECT_TRUE(simd::parse_level("avx2", level));
  EXPECT_EQ(level, simd::Level::Avx2);
  EXPECT_TRUE(simd::parse_level("neon", level));
  EXPECT_EQ(level, simd::Level::Neon);
  EXPECT_FALSE(simd::parse_level("sse999", level));
  EXPECT_FALSE(simd::parse_level("", level));
}

TEST(SimdCrc32, MatchesScalarAtEveryTierAndLength) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t n : kLengths) {
      const auto data = random_bytes(n, 7 * n + 1);
      const std::uint32_t ref = net::Crc32::of_scalar(data);
      EXPECT_EQ(net::Crc32::of(data), ref)
          << "tier=" << simd::to_string(tier) << " n=" << n;
      EXPECT_EQ(net::Crc32::of_sliced(data), ref) << "n=" << n;
    }
  }
}

TEST(SimdCrc32, StreamingChunksMatchOneShot) {
  TierGuard guard;
  const auto data = random_bytes(100000, 99);
  const std::uint32_t ref = net::Crc32::of_scalar(data);
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    net::Crc32 crc;
    net::Rng rng(5);
    std::size_t i = 0;
    while (i < data.size()) {
      // Ragged chunks spanning the < 64-byte short path, odd tails, and
      // multi-KiB folds within one stream.
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.bounded(5000), data.size() - i);
      crc.update({data.data() + i, chunk});
      i += chunk;
    }
    EXPECT_EQ(crc.value(), ref) << "tier=" << simd::to_string(tier);
  }
}

TEST(SimdClassify, TrafficMatchesScalarAtEveryTier) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t n : kLengths) {
      net::Rng rng(17 * n + 1);
      std::vector<std::uint8_t> proto(n), flags(n), icmp(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Mix real protocol numbers with arbitrary ones.
        const std::uint8_t protos[] = {1, 6, 17, 41, 0,
                                       static_cast<std::uint8_t>(rng.next())};
        proto[i] = protos[rng.bounded(6)];
        flags[i] = static_cast<std::uint8_t>(rng.next());
        icmp[i] = static_cast<std::uint8_t>(rng.bounded(16));
      }
      std::vector<std::uint8_t> got(n, 0xEE);
      pkt::classify_traffic_batch(proto.data(), flags.data(), icmp.data(), n,
                                  got.data());
      std::set<std::uint8_t> types_seen;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], static_cast<std::uint8_t>(pkt::classify_traffic(
                              static_cast<net::IpProto>(proto[i]), flags[i],
                              icmp[i])))
            << "tier=" << simd::to_string(tier) << " n=" << n << " i=" << i;
        types_seen.insert(got[i]);
      }
      if (n >= 4096) {
        EXPECT_EQ(types_seen.size(), 4u) << "every TrafficType present";
      }
    }
  }
}

TEST(SimdClassify, ToolMatchesScalarAtEveryTier) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t n : kLengths) {
      net::Rng rng(23 * n + 5);
      std::vector<std::uint8_t> proto(n);
      std::vector<std::uint32_t> dst(n), seq(n);
      std::vector<std::uint16_t> port(n), id(n);
      for (std::size_t i = 0; i < n; ++i) {
        proto[i] = rng.chance(0.7) ? 6 : 17;
        dst[i] = static_cast<std::uint32_t>(rng.next());
        port[i] = static_cast<std::uint16_t>(rng.next());
        seq[i] = static_cast<std::uint32_t>(rng.next());
        id[i] = static_cast<std::uint16_t>(rng.next());
        // Bias the fingerprint fields so every tool branch gets exercised.
        switch (rng.bounded(4)) {
          case 0: seq[i] = dst[i]; break;        // Mirai
          case 1: id[i] = pkt::kZmapIpId; break;  // ZMap
          case 2:                                 // Masscan
            id[i] = pkt::masscan_ip_id(net::Ipv4Address(dst[i]), port[i],
                                       seq[i]);
            break;
          default: break;
        }
      }
      std::vector<std::uint8_t> got(n, 0xEE);
      pkt::classify_tool_batch(proto.data(), dst.data(), port.data(),
                               id.data(), seq.data(), n, got.data());
      std::set<std::uint8_t> tools_seen;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], static_cast<std::uint8_t>(pkt::classify_tool(
                              static_cast<net::IpProto>(proto[i]),
                              net::Ipv4Address(dst[i]), port[i], id[i],
                              seq[i])))
            << "tier=" << simd::to_string(tier) << " n=" << n << " i=" << i;
        tools_seen.insert(got[i]);
      }
      if (n >= 4096) {
        EXPECT_EQ(tools_seen.size(), 4u) << "every ScanTool fingerprint present";
      }
    }
  }
}

TEST(SimdAlignment, BatchColumnsAre64ByteAligned) {
  static_assert(net::kColumnAlignment >= 64);
  pkt::PacketBatch batch(1024);
  pkt::ProbeBuilder builder(net::Ipv4Address(0x0A000001u), pkt::ScanTool::ZMap,
                            net::Rng(1));
  for (int i = 0; i < 100; ++i) {
    batch.push_back(builder.tcp_syn(net::SimTime::epoch(),
                                    net::Ipv4Address(0xC6120000u + i), 443));
  }
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % net::kColumnAlignment == 0;
  };
  EXPECT_TRUE(aligned(batch.dst_col().data()));
  EXPECT_TRUE(aligned(batch.proto_col().data()));
  EXPECT_TRUE(aligned(batch.tcp_flags_col().data()));
  EXPECT_TRUE(aligned(batch.icmp_type_col().data()));
  EXPECT_TRUE(aligned(batch.dst_port_col().data()));
  EXPECT_TRUE(aligned(batch.ip_id_col().data()));
  EXPECT_TRUE(aligned(batch.tcp_seq_col().data()));
  net::aligned_vector<std::uint32_t> v(3);
  EXPECT_TRUE(aligned(v.data()));
}

}  // namespace
