#include "orion/store/ode2.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "layout.hpp"
#include "orion/telescope/store.hpp"

namespace orion::store {

namespace {

/// The ODE2 body over any sink. EventDataset holds its events in
/// (start, key) order, so start days never decrease: each block's first
/// and last rows are its day bounds and each day is one row range.
std::uint64_t write_ode2(const telescope::EventDataset& dataset,
                         const detail::Sink& sink, std::uint64_t block_events) {
  const auto& events = dataset.events();
  const std::int64_t first_day = events.empty() ? 0 : dataset.first_day();
  const std::int64_t last_day = events.empty() ? -1 : dataset.last_day();
  const auto day_count = static_cast<std::uint64_t>(last_day - first_day + 1);
  // day_start[0] = 0, then day_start[d + 1]: rows starting on or before
  // day first_day + d, found by binary search over the start order.
  const auto day_index = [&](std::vector<std::uint8_t>& footer) {
    detail::append<std::uint64_t>(footer, 0);
    auto cursor = events.begin();
    for (std::uint64_t d = 0; d < day_count; ++d) {
      const std::int64_t day = first_day + static_cast<std::int64_t>(d);
      cursor = std::partition_point(
          cursor, events.end(),
          [day](const telescope::DarknetEvent& e) { return e.day() <= day; });
      detail::append<std::uint64_t>(
          footer, static_cast<std::uint64_t>(cursor - events.begin()));
    }
  };
  // One row loop fills every column at its ColumnLayout offset while
  // folding the source zone map.
  const auto fill = [&events](std::uint64_t lo, std::uint64_t m,
                              std::uint8_t* base,
                              std::vector<std::uint8_t>& metas) {
    const detail::ColumnLayout at(m);
    std::uint32_t min_src = events[lo].key.src.value();
    std::uint32_t max_src = min_src;
    for (std::uint64_t i = 0; i < m; ++i) {
      const telescope::DarknetEvent& e = events[lo + i];
      const std::uint32_t src = e.key.src.value();
      detail::put<std::int64_t>(base + at.start + 8 * i,
                                e.start.since_epoch().total_nanos());
      detail::put<std::int64_t>(base + at.end + 8 * i,
                                e.end.since_epoch().total_nanos());
      detail::put<std::uint64_t>(base + at.packets + 8 * i, e.packets);
      detail::put<std::uint64_t>(base + at.dests + 8 * i, e.unique_dests);
      for (std::size_t t = 0; t < e.packets_by_tool.size(); ++t) {
        detail::put<std::uint64_t>(base + at.tool[t] + 8 * i,
                                   e.packets_by_tool[t]);
      }
      detail::put<std::uint32_t>(base + at.src + 4 * i, src);
      detail::put<std::uint16_t>(base + at.port + 2 * i, e.key.dst_port);
      base[at.type + i] = static_cast<std::uint8_t>(e.key.type);
      min_src = std::min(min_src, src);
      max_src = std::max(max_src, src);
    }
    detail::append<std::int64_t>(metas, events[lo].day());
    detail::append<std::int64_t>(metas, events[lo + m - 1].day());
    detail::append<std::uint32_t>(metas, min_src);
    detail::append<std::uint32_t>(metas, max_src);
  };
  return detail::write_container(
      detail::kOde2, sink, dataset.darknet_size(), events.size(), block_events,
      fill, {first_day, last_day, day_count, day_index});
}

}  // namespace

std::uint64_t write_events_ode2(const telescope::EventDataset& dataset,
                                std::ostream& out,
                                std::uint64_t block_events) {
  return detail::write_to_stream(
      detail::kOde2, out, [&](const detail::Sink& sink) {
        return write_ode2(dataset, sink, block_events);
      });
}

std::uint64_t write_events_ode2(const telescope::EventDataset& dataset,
                                net::io::File& out,
                                std::uint64_t block_events) {
  return detail::write_to_file(out, [&](const detail::Sink& sink) {
    return write_ode2(dataset, sink, block_events);
  });
}

std::uint64_t write_events_ode2_file(const telescope::EventDataset& dataset,
                                     const std::string& path,
                                     std::uint64_t block_events) {
  return detail::write_to_path(path, [&](const detail::Sink& sink) {
    return write_ode2(dataset, sink, block_events);
  });
}

Ode2SalvageResult read_events_ode2_salvage(const std::string& path) {
  std::vector<telescope::DarknetEvent> events;
  const detail::SalvageOutcome out = detail::salvage(
      detail::kOde2, path,
      {.footer =
           [](const detail::Header& h, const detail::Footer& f) {
             std::int64_t first_day = 0;
             std::int64_t last_day = 0;
             std::vector<std::uint64_t> day_start;
             std::vector<BlockMeta> blocks;
             return detail::decode_ode2_footer(h, f, first_day, last_day,
                                               day_start, blocks);
           },
       // Every traffic-type byte must be a valid enum value — the same
       // structural check ODE1's record reader applies.
       .valid =
           [](const std::uint8_t* base, std::uint64_t rows) {
             const auto types = detail::ode2_view(base, rows, 0).type;
             return std::all_of(types.begin(), types.end(), [](std::uint8_t t) {
               return t <= static_cast<std::uint8_t>(pkt::TrafficType::Other);
             });
           },
       .invalid = "bad traffic type in block ",
       .take =
           [&events](const std::uint8_t* base, std::uint64_t rows) {
             const BlockView view = detail::ode2_view(base, rows, 0);
             for (std::size_t i = 0; i < view.rows(); ++i) {
               events.push_back(view.event(i));
             }
           }});
  Ode2SalvageResult result;
  result.declared_count = out.header.rows;
  result.recovered_count = events.size();
  result.footer_intact = out.footer_intact;
  result.complete = out.complete;
  result.error = out.error;
  result.dataset = telescope::EventDataset(std::move(events), out.header.tag);
  return result;
}

std::string sniff_event_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("event store: cannot open " + path);
  }
  char magic[4] = {};
  in.read(magic, 4);
  if (in.gcount() == 4) {
    if (std::memcmp(magic, "ODE1", 4) == 0) return "ODE1";
    if (std::memcmp(magic, detail::kOde2.magic, 4) == 0) return "ODE2";
  }
  return "?";
}

telescope::EventDataset load_events_auto(const std::string& path) {
  const std::string format = sniff_event_format(path);
  if (format == "ODE2") {
    return MappedEventStore(path).to_dataset();
  }
  if (format == "ODE1") {
    std::ifstream in(path, std::ios::binary);
    return telescope::read_events_binary(in);
  }
  throw std::runtime_error("event store: " + path +
                           " is neither an ODE1 nor an ODE2 archive");
}

}  // namespace orion::store
