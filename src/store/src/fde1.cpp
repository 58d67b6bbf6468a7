#include "orion/store/fde1.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "flow_layout.hpp"
#include "orion/flowsim/netflow_bridge.hpp"
#include "orion/flowsim/routing.hpp"

namespace orion::store {

namespace {

/// The global archive order every row must respect: segments strictly
/// increase in (router, day), rows within a segment keep the
/// (src, dst_port, traffic type) order flow_batch_of emits. This is both
/// the write-side contract and the structure footerless salvage verifies.
struct RowOrderKey {
  std::uint16_t router = 0;
  std::int64_t day = 0;
  std::uint32_t src = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t type = 0;

  friend auto operator<=>(const RowOrderKey&, const RowOrderKey&) = default;
};

RowOrderKey key_of(const flowsim::FlowRecord& r) {
  return RowOrderKey{r.router, detail::flow_day_of(r.ts_ns), r.src.value(),
                     r.dst_port,
                     static_cast<std::uint8_t>(flowsim::traffic_type_of(r.proto))};
}

void validate_segments(std::int64_t start_day, std::int64_t end_day,
                       const std::vector<Fde1Segment>& segments,
                       std::uint64_t& flow_count) {
  if (!fde1_window_valid(start_day, end_day)) {
    throw std::invalid_argument(
        "fde1 store: bad day window (start_day > end_day or wider than "
        "kFde1MaxWindowDays)");
  }
  flow_count = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const Fde1Segment& seg = segments[s];
    if (seg.day < start_day || seg.day >= end_day) {
      throw std::invalid_argument("fde1 store: segment day outside window");
    }
    if (s > 0) {
      const Fde1Segment& prev = segments[s - 1];
      if (std::tie(prev.router, prev.day) >= std::tie(seg.router, seg.day)) {
        throw std::invalid_argument(
            "fde1 store: segments not in (router, day) order");
      }
    }
    const flowsim::FlowBatch& rows = seg.rows;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows.router(i) != seg.router ||
          detail::flow_day_of(rows.ts_ns(i)) != seg.day) {
        throw std::invalid_argument(
            "fde1 store: row outside its segment's (router, day)");
      }
      if (i > 0) {
        const auto prev = std::make_tuple(
            rows.src(i - 1).value(), rows.dst_port(i - 1),
            static_cast<std::uint8_t>(rows.traffic_type(i - 1)));
        const auto cur = std::make_tuple(
            rows.src(i).value(), rows.dst_port(i),
            static_cast<std::uint8_t>(rows.traffic_type(i)));
        if (cur < prev) {
          throw std::invalid_argument(
              "fde1 store: rows out of (src, dst_port, type) order");
        }
      }
    }
    flow_count += rows.size();
  }
}

/// The FDE1 body over any sink: the segments' rows, concatenated, fill
/// the column blocks. A block's rows can straddle segments, so every
/// segment's share is copied column by column (one memcpy per column
/// run), folding the source zone map as it goes.
std::uint64_t write_fde1(std::uint32_t sampling_rate, std::int64_t start_day,
                         std::int64_t end_day,
                         const std::vector<Fde1Segment>& segments,
                         const detail::Sink& sink, std::uint64_t block_flows) {
  std::uint64_t n = 0;
  validate_segments(start_day, end_day, segments, n);

  std::size_t seg = 0;      // segment the next row comes from
  std::size_t seg_row = 0;  // row within that segment
  const auto fill = [&](std::uint64_t, std::uint64_t rows, std::uint8_t* base,
                        std::vector<std::uint8_t>& metas) {
    const detail::FlowColumnLayout at(rows);
    std::uint32_t min_src = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t max_src = 0;
    for (std::uint64_t filled = 0; filled < rows;) {
      while (seg_row >= segments[seg].rows.size()) {
        ++seg;
        seg_row = 0;
      }
      const flowsim::FlowBatch& from = segments[seg].rows;
      const auto take = static_cast<std::size_t>(
          std::min<std::uint64_t>(rows - filled, from.size() - seg_row));
      const auto copy = [&](std::uint64_t column_at, const auto& column) {
        constexpr std::size_t w = sizeof(column[0]);
        std::memcpy(base + column_at + w * filled, column.data() + seg_row,
                    w * take);
      };
      copy(at.ts, from.ts_ns_col());
      copy(at.packets, from.packets_col());
      copy(at.bytes, from.bytes_col());
      copy(at.src, from.src_col());
      copy(at.dst, from.dst_col());
      copy(at.src_port, from.src_port_col());
      copy(at.dst_port, from.dst_port_col());
      copy(at.router, from.router_col());
      copy(at.proto, from.proto_col());
      const std::uint32_t* srcs = from.src_col().data() + seg_row;
      const auto [lo, hi] = std::minmax_element(srcs, srcs + take);
      min_src = std::min(min_src, *lo);
      max_src = std::max(max_src, *hi);
      filled += take;
      seg_row += take;
    }
    detail::append<std::uint32_t>(metas, min_src);
    detail::append<std::uint32_t>(metas, max_src);
  };

  // Segment index: (router, day, row_begin, totals) per cell.
  const auto segment_index = [&segments](std::vector<std::uint8_t>& footer) {
    std::uint64_t row_begin = 0;
    for (const Fde1Segment& s : segments) {
      detail::append<std::uint64_t>(footer, s.router);
      detail::append<std::int64_t>(footer, s.day);
      detail::append<std::uint64_t>(footer, row_begin);
      detail::append<std::uint64_t>(footer, s.total_packets);
      detail::append<std::uint64_t>(footer, s.user_packets);
      detail::append<std::uint64_t>(footer, s.scanner_packets);
      row_begin += s.rows.size();
    }
  };
  return detail::write_container(
      detail::kFde1, sink, sampling_rate, n, block_flows, fill,
      {start_day, end_day, segments.size(), segment_index});
}

}  // namespace

std::uint64_t write_flows_fde1(std::uint32_t sampling_rate,
                               std::int64_t start_day, std::int64_t end_day,
                               const std::vector<Fde1Segment>& segments,
                               std::ostream& out, std::uint64_t block_flows) {
  return detail::write_to_stream(
      detail::kFde1, out, [&](const detail::Sink& sink) {
        return write_fde1(sampling_rate, start_day, end_day, segments, sink,
                          block_flows);
      });
}

std::uint64_t write_flows_fde1(std::uint32_t sampling_rate,
                               std::int64_t start_day, std::int64_t end_day,
                               const std::vector<Fde1Segment>& segments,
                               net::io::File& out, std::uint64_t block_flows) {
  return detail::write_to_file(out, [&](const detail::Sink& sink) {
    return write_fde1(sampling_rate, start_day, end_day, segments, sink,
                      block_flows);
  });
}

namespace {

/// One segment per (router, day) cell of the simulated window, rows from
/// the same flow_batch_of feed the in-memory index builds from.
std::vector<Fde1Segment> segments_of(const flowsim::FlowDataset& flows) {
  std::vector<Fde1Segment> segments;
  segments.reserve(flowsim::kRouterCount *
                   static_cast<std::size_t>(flows.end_day() - flows.start_day()));
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      const flowsim::RouterDay& rd = flows.at(router, day);
      Fde1Segment seg;
      seg.router = static_cast<std::uint16_t>(router);
      seg.day = day;
      seg.total_packets = rd.total_packets;
      seg.user_packets = rd.user_packets;
      seg.scanner_packets = rd.scanner_packets;
      seg.rows =
          flowsim::flow_batch_of(rd, static_cast<std::uint16_t>(router), day);
      segments.push_back(std::move(seg));
    }
  }
  return segments;
}

}  // namespace

std::uint64_t write_flows_fde1(const flowsim::FlowDataset& flows,
                               std::ostream& out, std::uint64_t block_flows) {
  return write_flows_fde1(flows.sampling_rate(), flows.start_day(),
                          flows.end_day(), segments_of(flows), out,
                          block_flows);
}

std::uint64_t write_flows_fde1(const flowsim::FlowDataset& flows,
                               net::io::File& out, std::uint64_t block_flows) {
  return write_flows_fde1(flows.sampling_rate(), flows.start_day(),
                          flows.end_day(), segments_of(flows), out,
                          block_flows);
}

std::uint64_t write_flows_fde1_file(const flowsim::FlowDataset& flows,
                                    const std::string& path,
                                    std::uint64_t block_flows) {
  return write_flows_fde1_file(flows.sampling_rate(), flows.start_day(),
                               flows.end_day(), segments_of(flows), path,
                               block_flows);
}

std::uint64_t write_flows_fde1_file(std::uint32_t sampling_rate,
                                    std::int64_t start_day,
                                    std::int64_t end_day,
                                    const std::vector<Fde1Segment>& segments,
                                    const std::string& path,
                                    std::uint64_t block_flows) {
  return detail::write_to_path(path, [&](const detail::Sink& sink) {
    return write_fde1(sampling_rate, start_day, end_day, segments, sink,
                      block_flows);
  });
}

Fde1SalvageResult read_flows_fde1_salvage(const std::string& path) {
  Fde1SalvageResult result;
  std::optional<RowOrderKey> last;  // key of the last recovered row
  const detail::SalvageOutcome out = detail::salvage(
      detail::kFde1, path,
      {.footer =
           [&result](const detail::Header& h, const detail::Footer& f) {
             std::vector<FlowSegment> segments;
             std::vector<FlowBlockMeta> blocks;
             const char* reason =
                 detail::decode_fde1_footer(h, f, segments, blocks);
             if (reason == nullptr) {
               result.start_day = f.lo;
               result.end_day = f.hi;
               result.segments = std::move(segments);
             }
             return reason;
           },
       // Flow fields are total, so the global row order is the only
       // structure unverified bytes have.
       .valid =
           [&last](const std::uint8_t* base, std::uint64_t rows) {
             const FlowView view = detail::fde1_view(base, rows, 0);
             std::optional<RowOrderKey> prev = last;
             for (std::size_t i = 0; i < view.rows(); ++i) {
               const RowOrderKey key = key_of(view.record(i));
               if (prev && key < *prev) return false;
               prev = key;
             }
             return true;
           },
       .invalid = "rows out of order in block ",
       .take =
           [&](const std::uint8_t* base, std::uint64_t rows) {
             const FlowView view = detail::fde1_view(base, rows, 0);
             for (std::size_t i = 0; i < view.rows(); ++i) {
               result.rows.push_back(view.record(i));
             }
             last = key_of(view.record(view.rows() - 1));
           }});
  result.sampling_rate = static_cast<std::uint32_t>(out.header.tag);
  result.declared_count = out.header.rows;
  result.recovered_count = result.rows.size();
  result.footer_intact = out.footer_intact;
  result.complete = out.complete;
  result.error = out.error;
  return result;
}

std::string sniff_flow_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("flow store: cannot open " + path);
  }
  char head[64] = {};
  in.read(head, sizeof(head));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got >= 4 && std::memcmp(head, detail::kFde1.magic, 4) == 0) return "FDE1";
  // NetFlow v5 export packets start with the big-endian version field.
  if (got >= 2 && head[0] == 0 && head[1] == 5) return "NFV5";
  // CSV: printable text (the header line) all the way through the probe.
  bool text = got > 0;
  for (std::size_t i = 0; i < got; ++i) {
    const auto c = static_cast<unsigned char>(head[i]);
    if (c != '\t' && c != '\n' && c != '\r' && (c < 0x20 || c > 0x7E)) {
      text = false;
      break;
    }
  }
  if (text) return "CSV";
  return "?";
}

}  // namespace orion::store
