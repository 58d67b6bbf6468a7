#include "container.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "orion/netbase/crc32.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ORION_STORE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ORION_STORE_HAVE_MMAP 0
#endif

namespace orion::store::detail {

// The zero-copy contract: column bytes are reinterpreted as host
// integers, so the on-disk little-endian layout must be the host layout.
// (The read-into-buffer fallback covers hosts without mmap, not
// big-endian hosts — those would need a byte-swapping decode pass.)
static_assert(std::endian::native == std::endian::little,
              "ODE2/FDE1 zero-copy reads require a little-endian host");

// ---------------------------------------------------------- MappedFile

MappedFile::MappedFile(const std::string& path, const char* prefix) {
#if ORION_STORE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        data_ = static_cast<const std::uint8_t*>(map);
        size_ = static_cast<std::uint64_t>(st.st_size);
        mapped_ = true;
      }
    }
    ::close(fd);
  }
#endif
  if (!mapped_) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const std::streamoff bytes = in ? std::streamoff(in.tellg()) : -1;
    if (bytes < 0) throw std::runtime_error(prefix + ("cannot open " + path));
    in.seekg(0);
    fallback_.resize(static_cast<std::size_t>((bytes + 7) / 8), 0);
    if (bytes > 0 &&
        !in.read(reinterpret_cast<char*>(fallback_.data()), bytes)) {
      throw std::runtime_error(prefix + ("short read of " + path));
    }
    data_ = reinterpret_cast<const std::uint8_t*>(fallback_.data());
    size_ = static_cast<std::uint64_t>(bytes);
  }
}

MappedFile::~MappedFile() { release(); }

MappedFile::MappedFile(MappedFile&& other) noexcept {
  *this = std::move(other);
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    fallback_ = std::move(other.fallback_);  // the buffer keeps its address
  }
  return *this;
}

void MappedFile::release() noexcept {
#if ORION_STORE_HAVE_MMAP
  if (mapped_) {
    ::munmap(const_cast<std::uint8_t*>(data_), static_cast<std::size_t>(size_));
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

// ------------------------------------------------------ header / footer

namespace {

std::uint64_t footer_offset_of(const Container& c, std::uint64_t rows,
                               std::uint64_t block_rows) {
  const std::uint64_t rest = rows % block_rows;
  return kHeaderBytes + rows / block_rows * c.block_bytes(block_rows) +
         (rest ? c.block_bytes(rest) : 0);
}

/// nullptr when the header is valid (then stored in `out`), else why not.
const char* parse_header(const Container& c, const MappedFile& file,
                         Header& out) {
  const std::uint8_t* p = file.data();
  if (file.size() < kHeaderBytes) return "truncated header";
  if (std::memcmp(p, c.magic, 4) != 0) return c.bad_magic;
  if (net::Crc32::of({p + 8, 32}) != get_u32(p + 4)) {
    return "header CRC mismatch";
  }
  const Header h{get_u64(p + 8), get_u64(p + 16), get_u64(p + 24),
                 get_u64(p + 32)};
  if (h.rows > c.max_rows) return c.absurd_rows;
  if (h.block_rows == 0 || h.block_rows > c.max_block_rows) {
    return "absurd block size";
  }
  if (h.footer_offset != footer_offset_of(c, h.rows, h.block_rows)) {
    return "header geometry mismatch";
  }
  out = h;
  return nullptr;
}

/// nullptr when the footer is valid (then stored in `out`), else why not.
/// The CRC comes first, so every later check reads sealed bytes; the
/// index bound then keeps the size arithmetic far from overflow.
const char* parse_footer(const Container& c, const Header& h,
                         const MappedFile& file, Footer& out) {
  const std::uint64_t min_bytes =
      kFooterHeadBytes + c.index_entry_bytes * c.index_extra + 4;
  if (h.footer_offset > file.size() ||
      file.size() - h.footer_offset < min_bytes) {
    return "truncated footer";
  }
  const std::uint8_t* f = file.data() + h.footer_offset;
  const std::uint64_t bytes = file.size() - h.footer_offset;
  if (net::Crc32::of({f, static_cast<std::size_t>(bytes - 4)}) !=
      get_u32(f + bytes - 4)) {
    return "footer CRC mismatch";
  }
  const std::uint64_t blocks = h.block_count();
  if (get_u64(f + 24) != blocks) return "corrupt block count";
  Footer ft;
  ft.lo = get_i64(f);
  ft.hi = get_i64(f + 8);
  ft.index_count = get_u64(f + 16);
  if (ft.index_count > c.max_index_count) return c.absurd_index;
  const std::uint64_t index_bytes =
      c.index_entry_bytes * (ft.index_count + c.index_extra);
  if (kFooterHeadBytes + index_bytes + (c.meta_bytes + 4) * blocks + 4 !=
      bytes) {
    return "corrupt footer size";
  }
  ft.index = f + kFooterHeadBytes;
  ft.metas = ft.index + index_bytes;
  ft.crcs = ft.metas + c.meta_bytes * blocks;
  for (std::uint64_t k = 0; k < blocks; ++k) {
    if (get_u64(ft.metas + c.meta_bytes * k) != block_offset(c, h, k)) {
      return "corrupt block metadata";
    }
  }
  out = ft;
  return nullptr;
}

}  // namespace

void fail(const Container& c, const std::string& reason) {
  throw std::runtime_error(c.prefix + reason);
}

bool block_crc_ok(const std::uint8_t* block, std::uint64_t bytes,
                  std::uint32_t crc) {
  return net::Crc32::of({block, static_cast<std::size_t>(bytes)}) == crc;
}

Footer open_strict(const Container& c, const MappedFile& file, Header& h) {
  Footer f;
  if (const char* reason = parse_header(c, file, h)) fail(c, reason);
  if (const char* reason = parse_footer(c, h, file, f)) fail(c, reason);
  return f;
}

// ------------------------------------------------------------- writing

std::uint64_t write_container(const Container& c, const Sink& sink,
                              std::uint64_t tag, std::uint64_t rows,
                              std::uint64_t block_rows, const FillBlock& fill,
                              const FooterIndex& index) {
  if (block_rows == 0 || block_rows > c.max_block_rows) {
    throw std::invalid_argument(c.prefix + std::string("bad block size"));
  }
  if (rows > c.max_rows) {
    throw std::invalid_argument(c.prefix + std::string(c.absurd_rows));
  }
  if (index.count > c.max_index_count) {
    throw std::invalid_argument(c.prefix + std::string(c.absurd_index));
  }
  const Header h{tag, rows, block_rows, footer_offset_of(c, rows, block_rows)};

  // Header: magic, CRC over the 32 field bytes, then the fields.
  std::vector<std::uint8_t> head(c.magic, c.magic + 4);
  head.resize(8);
  for (const std::uint64_t field : {h.tag, h.rows, h.block_rows, h.footer_offset}) {
    append(head, field);
  }
  put<std::uint32_t>(head.data() + 4, net::Crc32::of({head.data() + 8, 32}));
  sink(head.data(), head.size());

  // Blocks, each assembled in one buffer, CRC'd and written once. The pad
  // (< 8 bytes) ends the block, so zeroing the last word before the fill
  // leaves exactly the pad zero.
  std::vector<std::uint8_t> metas;
  std::vector<std::uint8_t> crcs;
  std::vector<std::uint8_t> buf;
  for (std::uint64_t k = 0; k < h.block_count(); ++k) {
    buf.resize(static_cast<std::size_t>(c.block_bytes(h.rows_in(k))));
    std::fill(buf.end() - 8, buf.end(), std::uint8_t{0});
    append<std::uint64_t>(metas, block_offset(c, h, k));
    fill(k * block_rows, h.rows_in(k), buf.data(), metas);
    append<std::uint32_t>(crcs, net::Crc32::of(buf));
    sink(buf.data(), buf.size());
  }

  // Footer: window, counts, index, metas, block CRCs, then its own CRC.
  std::vector<std::uint8_t> footer;
  append<std::int64_t>(footer, index.lo);
  append<std::int64_t>(footer, index.hi);
  append<std::uint64_t>(footer, index.count);
  append<std::uint64_t>(footer, h.block_count());
  index.append(footer);
  footer.insert(footer.end(), metas.begin(), metas.end());
  footer.insert(footer.end(), crcs.begin(), crcs.end());
  append<std::uint32_t>(footer, net::Crc32::of(footer));
  sink(footer.data(), footer.size());
  return h.footer_offset + footer.size();
}

std::uint64_t write_to_stream(const Container& c, std::ostream& out,
                              const SinkBody& body) {
  const std::uint64_t bytes = body([&](const std::uint8_t* p, std::size_t m) {
    out.write(reinterpret_cast<const char*>(p), static_cast<std::streamsize>(m));
    // Check after every write, not just at the end: a stream that enters
    // a fail state stays there, and writing megabytes into a dead stream
    // is how archives used to truncate silently.
    if (!out) fail(c, "stream write failure (bad/fail state)");
  });
  out.flush();
  if (!out) fail(c, "stream flush failure");
  return bytes;
}

std::uint64_t write_to_file(net::io::File& out, const SinkBody& body) {
  return body([&out](const std::uint8_t* p, std::size_t m) { out.write(p, m); });
}

std::uint64_t write_to_path(const std::string& path, const SinkBody& body) {
  // Created at the first byte: writers check every input before they
  // write one, so a rejected call leaves what is at `path` untouched.
  net::io::File out;
  bool created = false;
  const auto create = [&] {
    if (!created) out = net::io::File::create(path);
    created = true;
  };
  const std::uint64_t bytes = body([&](const std::uint8_t* p, std::size_t m) {
    create();
    out.write(p, m);
  });
  create();
  out.sync();
  out.close();
  return bytes;
}

// ------------------------------------------------------------- salvage

SalvageOutcome salvage(const Container& c, const std::string& path,
                       const SalvageHooks& hooks) {
  SalvageOutcome out;
  MappedFile file;
  try {
    file = MappedFile(path, c.prefix);
  } catch (const std::runtime_error& e) {
    out.error = e.what();
    return out;
  }
  Header h;
  if (const char* reason = parse_header(c, file, h)) {
    out.error = c.prefix + std::string(reason);
    return out;
  }
  out.header = h;

  // An intact footer lends its block CRCs; without one, each block must
  // pass the format's structural check instead.
  Footer f;
  out.footer_intact = parse_footer(c, h, file, f) == nullptr &&
                      hooks.footer(h, f) == nullptr;
  for (std::uint64_t k = 0; k < h.block_count(); ++k) {
    const std::uint64_t rows = h.rows_in(k);
    const std::uint64_t bytes = c.block_bytes(rows);
    const std::uint64_t offset = block_offset(c, h, k);
    if (offset + bytes > file.size()) {
      out.error = c.prefix + ("truncated block " + std::to_string(k));
      break;
    }
    const std::uint8_t* base = file.data() + offset;
    if (out.footer_intact ? !block_crc_ok(base, bytes, get_u32(f.crcs + 4 * k))
                          : !hooks.valid(base, rows)) {
      out.error = c.prefix + (out.footer_intact
                                  ? "block " + std::to_string(k) + " CRC mismatch"
                                  : hooks.invalid + std::to_string(k));
      break;
    }
    hooks.take(base, rows);
  }
  out.complete = out.footer_intact && out.error.empty();
  if (!out.footer_intact && out.error.empty()) {
    out.error = c.prefix + std::string("footer missing or corrupt");
  }
  return out;
}

}  // namespace orion::store::detail
