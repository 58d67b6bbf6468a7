// Internal FDE1 pieces shared by the writer and salvage (fde1.cpp) and
// the strict reader (mapped_flow.cpp): the format's container parameters,
// its column layout, the block view and the footer index decode. Not
// installed. The flow-side sibling of layout.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "container.hpp"
#include "orion/store/mapped_flow.hpp"

namespace orion::store::detail {

constexpr std::uint64_t kMaxFlowCount = std::uint64_t{1} << 27;
constexpr std::uint64_t kMaxBlockFlows = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxSegmentCount = std::uint64_t{1} << 22;

/// FDE1 in the container: one segment entry per (router, day) cell.
inline constexpr Container kFde1{{'F', 'D', 'E', '1'},
                                 "fde1 store: ",
                                 "bad magic (not an FDE1 file)",
                                 "absurd flow count",
                                 "absurd segment count",
                                 &fde1_block_bytes,
                                 kMaxFlowCount,
                                 kMaxBlockFlows,
                                 kFde1SegmentBytes,
                                 0,
                                 kMaxSegmentCount,
                                 kFde1BlockMetaBytes};

static_assert(kFde1HeaderBytes == kHeaderBytes);

/// Byte offsets of each flow column inside a block of `m` rows. Widest
/// columns first so every 8-byte column starts 8-aligned; the u32/u16/u8
/// tails only need their own natural alignment, which the descending
/// widths guarantee.
struct FlowColumnLayout {
  std::uint64_t ts, packets, bytes, src, dst, src_port, dst_port, router,
      proto;

  constexpr explicit FlowColumnLayout(std::uint64_t m)
      : ts(0),
        packets(8 * m),
        bytes(16 * m),
        src(24 * m),
        dst(28 * m),
        src_port(32 * m),
        dst_port(34 * m),
        router(36 * m),
        proto(38 * m) {}
};

constexpr std::int64_t kNanosPerDay = std::int64_t{86'400'000'000'000};

/// Day bucket of a flow timestamp — the same truncating division
/// SimTime::day() performs, so segment days agree with the simulator's.
constexpr std::int64_t flow_day_of(std::int64_t ts_ns) {
  return ts_ns / kNanosPerDay;
}

/// Typed spans over the `rows` rows of the 8-aligned block at `base`.
FlowView fde1_view(const std::uint8_t* base, std::uint64_t rows,
                   std::size_t first_row);

/// Decodes the footer's window, segment index and zone maps; nullptr
/// when they are consistent with the header, else why not. The strict
/// open throws on the reason; salvage treats the footer as lost.
const char* decode_fde1_footer(const Header& h, const Footer& f,
                               std::vector<FlowSegment>& segments,
                               std::vector<FlowBlockMeta>& blocks);

}  // namespace orion::store::detail
