// The one block container ODE2 and FDE1 share (DESIGN.md §10.1-10.2,
// §15.1-15.2). Not installed.
//
//   file   := header | block* | footer
//   header := magic[4] | crc32([8,40)) | tag u64 | rows u64
//             | block_rows u64 | footer_offset u64             (40 bytes)
//   block  := the format's columns for m rows | zero pad to 8
//   footer := lo i64 | hi i64 | index_count u64 | block_count u64
//             | index entry[index_count + index_extra]
//             | meta[block_count] | block_crc u32[block_count] | crc32
//   meta   := offset u64 | the format's zone map
//
// Every block but the last holds block_rows rows, so the header alone
// fixes every block's offset and the footer's. A format (ODE2: events,
// day index; FDE1: flows, segment index) supplies only its columns, its
// footer index and its zone maps; framing, CRCs, bounds, writer sinks and
// the salvage walk are written once, here, so the strict and the salvage
// reader run the same checks in the same order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "orion/netbase/io.hpp"
#include "orion/store/mapped_file.hpp"

namespace orion::store::detail {

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::int64_t get_i64(const std::uint8_t* p) {
  std::int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

template <typename T>
void append(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

/// Stores `v` at `p` in host (= on-disk little-endian) byte order.
template <typename T>
void put(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

/// Rows in block k of a container of `rows` rows in blocks of `block_rows`.
constexpr std::uint64_t rows_in_block(std::uint64_t rows,
                                      std::uint64_t block_rows,
                                      std::uint64_t k) {
  return std::min(block_rows, rows - k * block_rows);
}

constexpr std::uint64_t kHeaderBytes = 40;
constexpr std::uint64_t kFooterHeadBytes = 32;

/// What one format fixes about the container: magic, message prefix,
/// block width, limits, and the shape of its footer index and metas.
struct Container {
  char magic[4];
  const char* prefix;        // "ode2 store: "
  const char* bad_magic;     // "bad magic (not an ODE2 file)"
  const char* absurd_rows;   // "absurd event count"
  const char* absurd_index;  // footer index_count above max_index_count
  std::uint64_t (*block_bytes)(std::uint64_t rows);  // padded
  std::uint64_t max_rows;
  std::uint64_t max_block_rows;
  std::uint64_t index_entry_bytes;
  std::uint64_t index_extra;  // entries beyond index_count
  std::uint64_t max_index_count;
  std::uint64_t meta_bytes;   // per block, its u64 offset included
};

/// Header fields, validated: rows <= max_rows, block_rows in
/// [1, max_block_rows], footer_offset where the geometry puts it.
struct Header {
  std::uint64_t tag = 0;  // darknet_size (ODE2) / sampling_rate (FDE1)
  std::uint64_t rows = 0;
  std::uint64_t block_rows = 1;
  std::uint64_t footer_offset = 0;

  std::uint64_t block_count() const {
    return rows == 0 ? 0 : (rows + block_rows - 1) / block_rows;
  }
  std::uint64_t rows_in(std::uint64_t k) const {
    return rows_in_block(rows, block_rows, k);
  }
};

/// The footer after its CRC, block count, index bound, exact size and
/// meta offsets checked. Pointers address the checked file bytes.
struct Footer {
  std::int64_t lo = 0;            // first_day (ODE2) / start_day (FDE1)
  std::int64_t hi = 0;            // last_day (ODE2) / end_day (FDE1)
  std::uint64_t index_count = 0;  // day_count (ODE2) / segment_count (FDE1)
  const std::uint8_t* index = nullptr;
  const std::uint8_t* metas = nullptr;
  const std::uint8_t* crcs = nullptr;

  /// Block k's zone map: its meta past the offset.
  const std::uint8_t* zone(const Container& c, std::uint64_t k) const {
    return metas + c.meta_bytes * k + 8;
  }
};

/// File offset of block k (every earlier block is full).
inline std::uint64_t block_offset(const Container& c, const Header& h,
                                  std::uint64_t k) {
  return kHeaderBytes + k * c.block_bytes(h.block_rows);
}

[[noreturn]] void fail(const Container& c, const std::string& reason);

/// True when `bytes` bytes at `block` match the CRC the footer sealed.
bool block_crc_ok(const std::uint8_t* block, std::uint64_t bytes,
                  std::uint32_t crc);

/// Index of the first block whose bytes fail their CRC, else the block
/// count. `blocks` are a mapped store's metas (offset and crc fields).
template <typename Meta>
std::size_t first_bad_block(const Container& c, const MappedFile& file,
                            std::uint64_t rows, std::uint64_t block_rows,
                            const std::vector<Meta>& blocks) {
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    if (!block_crc_ok(file.data() + blocks[k].offset,
                      c.block_bytes(rows_in_block(rows, block_rows, k)),
                      blocks[k].crc)) {
      return k;
    }
  }
  return blocks.size();
}

/// Strict open: header, then footer, each check as salvage runs it;
/// throws std::runtime_error("<prefix><reason>") at the first failure.
Footer open_strict(const Container& c, const MappedFile& file, Header& h);

// ------------------------------------------------------------- writing

/// Receives the container's bytes: one call for the header, one per
/// block, one for the footer (the sequence the FaultFs matrix counts).
using Sink = std::function<void(const std::uint8_t*, std::size_t)>;

/// Fills `rows` rows starting at global row `first` into `base` (sized
/// and zero-padded) and appends the block's zone map to `metas`.
using FillBlock = std::function<void(std::uint64_t first, std::uint64_t rows,
                                     std::uint8_t* base,
                                     std::vector<std::uint8_t>& metas)>;

/// The format's footer index: window, entry count, and the entries.
struct FooterIndex {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::uint64_t count = 0;
  std::function<void(std::vector<std::uint8_t>&)> append;
};

/// Writes header, blocks and the sealed footer; returns total bytes.
/// Throws std::invalid_argument on a bad block size, or on more rows or
/// index entries than the readers accept.
std::uint64_t write_container(const Container& c, const Sink& sink,
                              std::uint64_t tag, std::uint64_t rows,
                              std::uint64_t block_rows, const FillBlock& fill,
                              const FooterIndex& index);

/// The writer front ends every format shares. `body` writes one
/// container through the sink or file it is handed.
using SinkBody = std::function<std::uint64_t(const Sink&)>;
/// ostream: fail state checked after every write, flushed at the end.
std::uint64_t write_to_stream(const Container& c, std::ostream& out,
                              const SinkBody& body);
/// io::File: every write through the failpoint-instrumented seam.
std::uint64_t write_to_file(net::io::File& out, const SinkBody& body);
/// Path: create (truncating) at the first write, then sync and close.
std::uint64_t write_to_path(const std::string& path, const SinkBody& body);

// ------------------------------------------------------------- salvage

/// What the salvage walk asks of a format.
struct SalvageHooks {
  /// Decodes the CRC-valid footer's index; a non-null reason marks the
  /// footer corrupt — exactly the footers the strict open rejects.
  std::function<const char*(const Header&, const Footer&)> footer;
  /// Structural check of a block read without an intact footer.
  std::function<bool(const std::uint8_t* block, std::uint64_t rows)> valid;
  const char* invalid;  // error text before the block number
  /// Receives each recovered block, in file order.
  std::function<void(const std::uint8_t* block, std::uint64_t rows)> take;
};

struct SalvageOutcome {
  Header header;  // rows = 0 when the header failed
  bool footer_intact = false;
  bool complete = false;
  std::string error;
};

/// Reads `path`, checks the header and footer as the strict open does,
/// then hands over every block up to the first truncated, CRC-failing
/// (intact footer) or structurally invalid (no footer) one.
SalvageOutcome salvage(const Container& c, const std::string& path,
                       const SalvageHooks& hooks);

}  // namespace orion::store::detail
