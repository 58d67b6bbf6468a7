// ODE2 — the columnar on-disk event format behind the zero-copy analysis
// engine (DESIGN.md §10).
//
// ODE1 (telescope/store.hpp) is row-oriented: every load deserializes the
// full archive into std::vector<DarknetEvent> field by field through an
// istream, and every per-day analysis then rescans all of it. ODE2 keeps
// the same logical content but lays events out as little-endian column
// blocks (row groups) so an analysis can mmap the archive and scan only
// the columns — and only the days — it needs:
//
//   file   := header | block* | footer
//   header := "ODE2" | crc32([8,40)) | darknet_size u64 | event_count u64
//             | block_events u64 | footer_offset u64          (40 bytes)
//   block  := start i64[m] | end i64[m] | packets u64[m] | dests u64[m]
//             | tool0..tool3 u64[m] | src u32[m] | port u16[m] | type u8[m]
//             | zero pad to 8                (m = rows in the block)
//   footer := first_day i64 | last_day i64 | day_count u64 | block_count u64
//             | day_start u64[day_count+1] | block meta[block_count]
//             | block_crc u32[block_count] | footer crc32
//   meta   := offset u64 | min_day i64 | max_day i64 | min_src u32
//             | max_src u32                                   (32 bytes)
//
// Alignment invariant: the header is 40 bytes and every block is padded to
// a multiple of 8, so each block (and therefore each 8-byte column, which
// comes first) starts 8-aligned — the mapped bytes can be exposed as
// typed spans directly. day_start relies on the EventDataset total order
// (start, key): start days are non-decreasing, so each day is one
// contiguous row range. Block min/max (day, src) are the zone maps that
// let scans skip whole blocks without touching their data.
//
// Integrity follows ODE1's salvage philosophy: the header and footer carry
// CRC-32s, each block's CRC lives in the footer, and the salvage reader
// recovers every complete valid block preceding the first error — falling
// back to header-derived geometry when truncation took the footer itself.
//
// Header, block geometry, footer frame (window, counts, index, metas,
// block CRCs, CRC), the writer sinks and the salvage walk are the block
// container ODE2 shares with FDE1 (src/store/src/container.hpp,
// DESIGN.md §10.1-10.2); ODE2 itself is the column list above, the day
// index and the (day, src) zone maps. Both readers run the same header
// and footer checks, so salvage calls a footer intact exactly when the
// strict open (MappedEventStore) accepts it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "orion/netbase/io.hpp"
#include "orion/telescope/capture.hpp"

namespace orion::store {

/// Rows per full block. Small enough that salvage granularity stays fine
/// and zone maps stay selective; large enough that column runs amortize.
constexpr std::uint64_t kOde2DefaultBlockEvents = 1024;

constexpr std::uint64_t kOde2HeaderBytes = 40;
constexpr std::uint64_t kOde2BlockMetaBytes = 32;

/// Bytes of one block holding `rows` events (including the trailing pad).
constexpr std::uint64_t ode2_block_bytes(std::uint64_t rows) {
  const std::uint64_t raw = rows * (8 * 8 + 4 + 2 + 1);
  return (raw + 7) & ~std::uint64_t{7};
}

/// Writes `dataset` in ODE2 form; returns total bytes written. Throws
/// std::runtime_error on stream failure and std::invalid_argument on a
/// bad block size. The day index relies on the (start, key) order every
/// EventDataset holds.
std::uint64_t write_events_ode2(
    const telescope::EventDataset& dataset, std::ostream& out,
    std::uint64_t block_events = kOde2DefaultBlockEvents);

/// Failpoint-instrumented variant: writes through the io::File seam, so
/// every write is EINTR-retried, short-write-completed, and visible to
/// the FaultFs crash matrix. Errors surface as net::io::IoError. This is
/// the path archive publication uses.
std::uint64_t write_events_ode2(
    const telescope::EventDataset& dataset, net::io::File& out,
    std::uint64_t block_events = kOde2DefaultBlockEvents);

/// Convenience: write straight to a file path (truncating, io::File
/// seam, NOT atomic — use ArchiveDir publication for crash safety). The
/// file is created at the first byte, so invalid arguments throw
/// std::invalid_argument with the path untouched.
std::uint64_t write_events_ode2_file(
    const telescope::EventDataset& dataset, const std::string& path,
    std::uint64_t block_events = kOde2DefaultBlockEvents);

/// Salvage-mode read mirroring telescope::read_events_binary_salvage:
/// recovers every complete valid block preceding the first error instead
/// of throwing the whole archive away.
struct Ode2SalvageResult {
  telescope::EventDataset dataset{{}, 0};
  std::uint64_t declared_count = 0;   // header's event count (0: bad header)
  std::uint64_t recovered_count = 0;  // rows recovered into `dataset`
  bool footer_intact = false;         // footer parsed and CRC-verified
  bool complete = false;              // whole file verified clean
  std::string error;                  // first error when !complete
};

Ode2SalvageResult read_events_ode2_salvage(const std::string& path);

/// Sniffs the 4-byte magic and loads either format into an EventDataset —
/// the compatibility path for every ODE1 call site that now may be handed
/// an ODE2 archive. Throws std::runtime_error on open failure or a
/// corrupt file of either format.
telescope::EventDataset load_events_auto(const std::string& path);

/// The magic the sniffing loader saw ("ODE1", "ODE2", or "?" for neither).
std::string sniff_event_format(const std::string& path);

}  // namespace orion::store
