#include "orion/store/mapped_flow.hpp"

#include <algorithm>
#include <tuple>

#include "flow_layout.hpp"

namespace orion::store {

flowsim::FlowRecord FlowView::record(std::size_t i) const {
  flowsim::FlowRecord r;
  r.ts_ns = ts_ns[i];
  r.packets = packets[i];
  r.bytes = bytes[i];
  r.src = net::Ipv4Address(src[i]);
  r.dst = net::Ipv4Address(dst[i]);
  r.src_port = src_port[i];
  r.dst_port = dst_port[i];
  r.router = router[i];
  r.proto = proto[i];
  return r;
}

namespace detail {

FlowView fde1_view(const std::uint8_t* base, std::uint64_t rows,
                   std::size_t first_row) {
  const FlowColumnLayout at(rows);
  const auto m = static_cast<std::size_t>(rows);
  FlowView view;
  view.first_row = first_row;
  view.ts_ns = {reinterpret_cast<const std::int64_t*>(base + at.ts), m};
  view.packets = {reinterpret_cast<const std::uint64_t*>(base + at.packets), m};
  view.bytes = {reinterpret_cast<const std::uint64_t*>(base + at.bytes), m};
  view.src = {reinterpret_cast<const std::uint32_t*>(base + at.src), m};
  view.dst = {reinterpret_cast<const std::uint32_t*>(base + at.dst), m};
  view.src_port = {reinterpret_cast<const std::uint16_t*>(base + at.src_port), m};
  view.dst_port = {reinterpret_cast<const std::uint16_t*>(base + at.dst_port), m};
  view.router = {reinterpret_cast<const std::uint16_t*>(base + at.router), m};
  view.proto = {base + at.proto, m};
  return view;
}

const char* decode_fde1_footer(const Header& h, const Footer& f,
                               std::vector<FlowSegment>& segments,
                               std::vector<FlowBlockMeta>& blocks) {
  if (!fde1_window_valid(f.lo, f.hi)) return "corrupt day window";
  const std::uint64_t n = h.rows;
  segments.resize(static_cast<std::size_t>(f.index_count));
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const std::uint8_t* entry = f.index + kFde1SegmentBytes * s;
    FlowSegment& seg = segments[s];
    seg.router = static_cast<std::size_t>(get_u64(entry));
    seg.day = get_i64(entry + 8);
    seg.row_begin = get_u64(entry + 16);
    seg.row_end =
        s + 1 < segments.size() ? get_u64(entry + kFde1SegmentBytes + 16) : n;
    seg.total_packets = get_u64(entry + 24);
    seg.user_packets = get_u64(entry + 32);
    seg.scanner_packets = get_u64(entry + 40);
    if (seg.day < f.lo || seg.day >= f.hi) {
      return "corrupt segment index (day outside window)";
    }
    if (seg.row_begin > seg.row_end || seg.row_end > n) {
      return "corrupt segment index (bad row range)";
    }
    if (s > 0 && std::tie(segments[s - 1].router, segments[s - 1].day) >=
                     std::tie(seg.router, seg.day)) {
      return "corrupt segment index (unordered)";
    }
  }
  if (!segments.empty() && segments.front().row_begin != 0) {
    return "corrupt segment index (row coverage)";
  }
  if (segments.empty() && n != 0) {
    return "corrupt segment index (rows without segments)";
  }
  blocks.resize(static_cast<std::size_t>(h.block_count()));
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const std::uint8_t* zone = f.zone(kFde1, k);
    FlowBlockMeta& meta = blocks[k];
    meta.offset = block_offset(kFde1, h, k);
    meta.min_src = get_u32(zone);
    meta.max_src = get_u32(zone + 4);
    meta.crc = get_u32(f.crcs + 4 * k);
    if (meta.min_src > meta.max_src) return "corrupt block metadata";
  }
  return nullptr;
}

}  // namespace detail

MappedFlowStore::MappedFlowStore(const std::string& path)
    : file_(path, detail::kFde1.prefix) {
  detail::Header h;
  const detail::Footer f = detail::open_strict(detail::kFde1, file_, h);
  sampling_rate_ = static_cast<std::uint32_t>(h.tag);
  flow_count_ = h.rows;
  block_flows_ = h.block_rows;
  start_day_ = f.lo;
  end_day_ = f.hi;
  if (const char* reason =
          detail::decode_fde1_footer(h, f, segments_, blocks_)) {
    detail::fail(detail::kFde1, reason);
  }
}

FlowView MappedFlowStore::block(std::size_t k) const {
  return detail::fde1_view(
      file_.data() + blocks_[k].offset,
      detail::rows_in_block(flow_count_, block_flows_, k),
      k * static_cast<std::size_t>(block_flows_));
}

const FlowSegment* MappedFlowStore::segment(std::size_t router,
                                            std::int64_t day) const {
  const auto it = std::lower_bound(
      segments_.begin(), segments_.end(), std::make_pair(router, day),
      [](const FlowSegment& seg, const std::pair<std::size_t, std::int64_t>& key) {
        return std::tie(seg.router, seg.day) < std::tie(key.first, key.second);
      });
  if (it == segments_.end() || it->router != router || it->day != day) {
    return nullptr;
  }
  return &*it;
}

std::pair<std::uint64_t, std::uint64_t> MappedFlowStore::row_range(
    std::size_t router, std::int64_t day) const {
  const FlowSegment* seg = segment(router, day);
  if (seg == nullptr) return {0, 0};
  return {seg->row_begin, seg->row_end};
}

std::size_t MappedFlowStore::verify_blocks() const {
  return detail::first_bad_block(detail::kFde1, file_, flow_count_,
                                 block_flows_, blocks_);
}

flowsim::FlowRecord MappedFlowStore::record(std::uint64_t row) const {
  if (row >= flow_count_) detail::fail(detail::kFde1, "flow index out of range");
  const auto k = static_cast<std::size_t>(row / block_flows_);
  return block(k).record(static_cast<std::size_t>(row % block_flows_));
}

flowsim::FlowBatch MappedFlowStore::to_batch() const {
  flowsim::FlowBatch batch(flow_count());
  for (std::size_t k = 0; k < blocks_.size(); ++k) {
    const FlowView view = block(k);
    for (std::size_t i = 0; i < view.rows(); ++i) {
      batch.push_back(view.record(i));
    }
  }
  return batch;
}

flowsim::FlowDataset MappedFlowStore::to_dataset() const {
  flowsim::FlowSimConfig config;
  config.start_day = start_day_;
  config.end_day = end_day_;
  config.sampling_rate = sampling_rate_;
  const auto days = static_cast<std::size_t>(end_day_ - start_day_);
  std::vector<std::vector<flowsim::RouterDay>> table(
      flowsim::kRouterCount, std::vector<flowsim::RouterDay>(days));
  for (const FlowSegment& seg : segments_) {
    if (seg.router >= flowsim::kRouterCount) {
      detail::fail(detail::kFde1,
                   "to_dataset: segment router outside the paper topology");
    }
    flowsim::RouterDay& rd =
        table[seg.router][static_cast<std::size_t>(seg.day - start_day_)];
    rd.total_packets = seg.total_packets;
    rd.user_packets = seg.user_packets;
    rd.scanner_packets = seg.scanner_packets;
    for_each_span(seg.row_begin, seg.row_end,
                  [&rd](const FlowView& view, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) {
                      flowsim::FlowKey key;
                      key.src = net::Ipv4Address(view.src[i]);
                      key.dst_port = view.dst_port[i];
                      key.type = flowsim::traffic_type_of(view.proto[i]);
                      rd.sampled[key] += view.packets[i];
                    }
                  });
  }
  return flowsim::FlowDataset(std::move(config), std::move(table));
}

}  // namespace orion::store
