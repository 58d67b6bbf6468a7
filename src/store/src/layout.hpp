// Internal ODE2 pieces shared by the writer and salvage (ode2.cpp) and
// the strict reader (mapped.cpp): the format's container parameters, its
// column layout, the block view and the footer index decode. Not
// installed.
#pragma once

#include <cstdint>
#include <vector>

#include "container.hpp"
#include "orion/store/mapped.hpp"

namespace orion::store::detail {

constexpr std::uint64_t kMaxEventCount = std::uint64_t{1} << 27;  // ~ ODE1's cap
constexpr std::uint64_t kMaxBlockEvents = std::uint64_t{1} << 24;

/// ODE2 in the container: a day_start entry per day plus one, day_count
/// bounded like the event count.
inline constexpr Container kOde2{{'O', 'D', 'E', '2'},
                                 "ode2 store: ",
                                 "bad magic (not an ODE2 file)",
                                 "absurd event count",
                                 "absurd day count",
                                 &ode2_block_bytes,
                                 kMaxEventCount,
                                 kMaxBlockEvents,
                                 8,
                                 1,
                                 kMaxEventCount,
                                 kOde2BlockMetaBytes};

static_assert(kOde2HeaderBytes == kHeaderBytes);

/// Byte offsets of each column inside a block of `m` rows — the one
/// layout definition the writer fills and every reader decodes.
struct ColumnLayout {
  std::uint64_t start, end, packets, dests, tool[4], src, port, type;

  constexpr explicit ColumnLayout(std::uint64_t m)
      : start(0),
        end(8 * m),
        packets(16 * m),
        dests(24 * m),
        tool{32 * m, 40 * m, 48 * m, 56 * m},
        src(64 * m),
        port(68 * m),
        type(70 * m) {}
};

/// Typed spans over the `rows` rows of the 8-aligned block at `base`.
BlockView ode2_view(const std::uint8_t* base, std::uint64_t rows,
                    std::size_t first_row);

/// Decodes the footer's window, day index and zone maps; nullptr when
/// they are consistent with the header, else why not. The strict open
/// throws on the reason; salvage treats the footer as lost.
const char* decode_ode2_footer(const Header& h, const Footer& f,
                               std::int64_t& first_day, std::int64_t& last_day,
                               std::vector<std::uint64_t>& day_start,
                               std::vector<BlockMeta>& blocks);

}  // namespace orion::store::detail
