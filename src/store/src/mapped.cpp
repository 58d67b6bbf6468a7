#include "orion/store/mapped.hpp"

#include <algorithm>

#include "layout.hpp"

namespace orion::store {

telescope::DarknetEvent BlockView::event(std::size_t i) const {
  telescope::DarknetEvent e;
  e.key.src = net::Ipv4Address(src[i]);
  e.key.dst_port = dst_port[i];
  e.key.type = static_cast<pkt::TrafficType>(type[i]);
  e.start = net::SimTime::at(net::Duration::nanos(start_ns[i]));
  e.end = net::SimTime::at(net::Duration::nanos(end_ns[i]));
  e.packets = packets[i];
  e.unique_dests = unique_dests[i];
  for (std::size_t t = 0; t < e.packets_by_tool.size(); ++t) {
    e.packets_by_tool[t] = tool_packets[t][i];
  }
  return e;
}

namespace detail {

BlockView ode2_view(const std::uint8_t* base, std::uint64_t rows,
                    std::size_t first_row) {
  const ColumnLayout at(rows);
  const auto m = static_cast<std::size_t>(rows);
  BlockView view;
  view.first_row = first_row;
  view.start_ns = {reinterpret_cast<const std::int64_t*>(base + at.start), m};
  view.end_ns = {reinterpret_cast<const std::int64_t*>(base + at.end), m};
  view.packets = {reinterpret_cast<const std::uint64_t*>(base + at.packets), m};
  view.unique_dests = {reinterpret_cast<const std::uint64_t*>(base + at.dests), m};
  for (std::size_t t = 0; t < view.tool_packets.size(); ++t) {
    view.tool_packets[t] = {
        reinterpret_cast<const std::uint64_t*>(base + at.tool[t]), m};
  }
  view.src = {reinterpret_cast<const std::uint32_t*>(base + at.src), m};
  view.dst_port = {reinterpret_cast<const std::uint16_t*>(base + at.port), m};
  view.type = {base + at.type, m};
  return view;
}

const char* decode_ode2_footer(const Header& h, const Footer& f,
                               std::int64_t& first_day, std::int64_t& last_day,
                               std::vector<std::uint64_t>& day_start,
                               std::vector<BlockMeta>& blocks) {
  // The window spans day_count days. The span is taken unsigned only
  // once last >= first holds, so no day pair can overflow it.
  const bool window_ok =
      h.rows == 0 ? f.index_count == 0
                  : f.lo <= f.hi && f.index_count != 0 &&
                        static_cast<std::uint64_t>(f.hi) -
                                static_cast<std::uint64_t>(f.lo) ==
                            f.index_count - 1;
  if (!window_ok) return "corrupt day index";
  first_day = f.lo;
  last_day = f.hi;
  day_start.resize(static_cast<std::size_t>(f.index_count + 1));
  for (std::size_t d = 0; d < day_start.size(); ++d) {
    day_start[d] = get_u64(f.index + 8 * d);
  }
  if (day_start.front() != 0 || day_start.back() != h.rows ||
      !std::is_sorted(day_start.begin(), day_start.end())) {
    return "corrupt day index";
  }
  blocks.resize(static_cast<std::size_t>(h.block_count()));
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const std::uint8_t* zone = f.zone(kOde2, k);
    BlockMeta& meta = blocks[k];
    meta.offset = block_offset(kOde2, h, k);
    meta.min_day = get_i64(zone);
    meta.max_day = get_i64(zone + 8);
    meta.min_src = get_u32(zone + 16);
    meta.max_src = get_u32(zone + 20);
    meta.crc = get_u32(f.crcs + 4 * k);
    if (meta.min_day > meta.max_day || meta.min_src > meta.max_src) {
      return "corrupt block metadata";
    }
  }
  return nullptr;
}

}  // namespace detail

MappedEventStore::MappedEventStore(const std::string& path)
    : file_(path, detail::kOde2.prefix) {
  detail::Header h;
  const detail::Footer f = detail::open_strict(detail::kOde2, file_, h);
  darknet_size_ = h.tag;
  event_count_ = h.rows;
  block_events_ = h.block_rows;
  if (const char* reason = detail::decode_ode2_footer(
          h, f, first_day_, last_day_, day_start_, blocks_)) {
    detail::fail(detail::kOde2, reason);
  }
}

BlockView MappedEventStore::block(std::size_t k) const {
  return detail::ode2_view(
      file_.data() + blocks_[k].offset,
      detail::rows_in_block(event_count_, block_events_, k),
      k * static_cast<std::size_t>(block_events_));
}

std::pair<std::uint64_t, std::uint64_t> MappedEventStore::day_range(
    std::int64_t day) const {
  if (event_count_ == 0 || day < first_day_ || day > last_day_) return {0, 0};
  const auto index = static_cast<std::size_t>(day - first_day_);
  return {day_start_[index], day_start_[index + 1]};
}

std::size_t MappedEventStore::verify_blocks() const {
  return detail::first_bad_block(detail::kOde2, file_, event_count_,
                                 block_events_, blocks_);
}

telescope::DarknetEvent MappedEventStore::event(std::uint64_t row) const {
  if (row >= event_count_) detail::fail(detail::kOde2, "event index out of range");
  const auto k = static_cast<std::size_t>(row / block_events_);
  return block(k).event(static_cast<std::size_t>(row % block_events_));
}

telescope::EventDataset MappedEventStore::to_dataset() const {
  std::vector<telescope::DarknetEvent> events;
  events.reserve(event_count());
  for (std::size_t k = 0; k < blocks_.size(); ++k) {
    const BlockView view = block(k);
    for (std::size_t i = 0; i < view.rows(); ++i) {
      events.push_back(view.event(i));
    }
  }
  return telescope::EventDataset(std::move(events), darknet_size_);
}

}  // namespace orion::store
