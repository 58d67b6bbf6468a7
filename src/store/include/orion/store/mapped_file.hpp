// The parts of the ODE2/FDE1 block container (DESIGN.md §10.1) that the
// public mapped stores hold or inline: the read-only file they map and
// the row-range block walk behind their row scans. Header and footer
// framing, block CRCs, the writer sinks and the salvage walk live in the
// store-internal src/container.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace orion::store::detail {

/// The whole of one file as read-only bytes: mmap'ed where the platform
/// has it, else read into an 8-aligned heap buffer so typed column spans
/// work identically (just without demand paging). Move-only; unmaps on
/// destruction.
class MappedFile {
 public:
  MappedFile() = default;
  /// Throws std::runtime_error("<prefix>cannot open <path>") when the
  /// file can be neither mapped nor read.
  MappedFile(const std::string& path, const char* prefix);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::uint64_t size() const { return size_; }
  /// False when the read-into-buffer fallback holds the bytes.
  bool mapped() const { return mapped_; }

 private:
  void release() noexcept;

  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::uint64_t> fallback_;  // owns the bytes when !mapped_
};

/// Calls fn(k, lo, hi) for every block k holding rows of the global row
/// range [begin, end), where [lo, hi) are the block-local rows inside the
/// range. Blocks hold `block_rows` rows each, the last one the rest of
/// `rows`; `end` is clamped to `rows`.
template <typename Fn>
void for_each_block_slice(std::uint64_t rows, std::uint64_t block_rows,
                          std::uint64_t begin, std::uint64_t end, Fn&& fn) {
  end = std::min(end, rows);
  for (std::uint64_t k = begin / block_rows; begin < end && k * block_rows < end;
       ++k) {
    const std::uint64_t first = k * block_rows;
    fn(static_cast<std::size_t>(k),
       static_cast<std::size_t>(begin > first ? begin - first : 0),
       static_cast<std::size_t>(std::min(block_rows, end - first)));
  }
}

}  // namespace orion::store::detail
