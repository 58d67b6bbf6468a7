#include "orion/telescope/capture.hpp"

#include <algorithm>
#include <stdexcept>

#include "orion/netbase/flat_map.hpp"
#include "orion/telescope/checkpoint.hpp"

namespace orion::telescope {

namespace {

constexpr std::uint64_t kCaptureTag = checkpoint_tag('C', 'A', 'P', '1');

void put_event(CheckpointWriter& w, const DarknetEvent& e) {
  w.u64(e.key.src.value());
  w.u64(e.key.dst_port);
  w.u8(static_cast<std::uint8_t>(e.key.type));
  w.i64(e.start.since_epoch().total_nanos());
  w.i64(e.end.since_epoch().total_nanos());
  w.u64(e.packets);
  w.u64(e.unique_dests);
  for (const std::uint64_t t : e.packets_by_tool) w.u64(t);
}

DarknetEvent get_event(CheckpointReader& r) {
  DarknetEvent e;
  e.key.src = net::Ipv4Address(static_cast<std::uint32_t>(r.u64("event src")));
  e.key.dst_port = static_cast<std::uint16_t>(r.u64("event port"));
  const std::uint8_t type = r.u8("event type");
  if (type > static_cast<std::uint8_t>(pkt::TrafficType::Other)) {
    throw std::runtime_error("checkpoint: bad traffic type");
  }
  e.key.type = static_cast<pkt::TrafficType>(type);
  e.start = net::SimTime::at(net::Duration::nanos(r.i64("event start")));
  e.end = net::SimTime::at(net::Duration::nanos(r.i64("event end")));
  e.packets = r.u64("event packets");
  e.unique_dests = r.u64("event dests");
  for (std::uint64_t& t : e.packets_by_tool) t = r.u64("tool packets");
  return e;
}

}  // namespace

EventDataset::EventDataset(std::vector<DarknetEvent> events,
                           std::uint64_t darknet_size)
    : events_(std::move(events)), darknet_size_(darknet_size) {
  // Total order (start, key): (start, key) is unique — one live event per
  // key at a time — so dataset order is independent of emission order,
  // which the sharded pipeline relies on for byte-identical merges.
  //
  // Every batch producer (synthesize_events, the ODE1/ODE2 readers and
  // their salvage paths) already hands over start-ordered rows, so one
  // is_sorted pass usually leaves only each run of equal starts to order
  // by key. Unordered input (the sharded pipeline's concatenation) takes
  // the full sort; both paths yield the same total order.
  const auto by_start = [](const DarknetEvent& a, const DarknetEvent& b) {
    return a.start < b.start;
  };
  if (std::is_sorted(events_.begin(), events_.end(), by_start)) {
    const auto by_key = [](const DarknetEvent& a, const DarknetEvent& b) {
      return a.key < b.key;
    };
    for (auto run = events_.begin(); run != events_.end();) {
      const net::SimTime start = run->start;
      const auto stop = std::find_if(run + 1, events_.end(),
                                     [start](const DarknetEvent& e) {
                                       return e.start != start;
                                     });
      if (stop - run > 1) std::sort(run, stop, by_key);
      run = stop;
    }
  } else {
    std::sort(events_.begin(), events_.end(),
              [](const DarknetEvent& a, const DarknetEvent& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.key < b.key;
              });
  }
  // Packet total and distinct sources in one pass; the flat set costs one
  // probe per event and no per-source allocation.
  net::FlatMap<std::uint32_t, bool> sources;
  for (const DarknetEvent& e : events_) {
    total_packets_ += e.packets;
    sources.try_emplace(e.key.src.value(), true);
  }
  unique_sources_ = sources.size();
  if (!events_.empty()) {
    first_day_ = events_.front().day();
    last_day_ = events_.back().day();
  }
}

TelescopeCapture::TelescopeCapture(net::PrefixSet dark_space,
                                   AggregatorConfig config)
    : aggregator_(dark_space, config, collector_.sink()),
      darknet_size_(dark_space.total_addresses()) {}

void TelescopeCapture::observe(const pkt::Packet& packet) {
  ++packets_captured_;
  sources_.insert(packet.tuple.src);
  aggregator_.observe(packet);
}

void TelescopeCapture::observe_batch(const pkt::PacketBatch& batch) {
  // Aggregator first: it validates the whole batch before applying any
  // record, so a throw leaves this capture untouched too. Sources are then
  // inserted in record order — the same order the scalar loop would use —
  // keeping the checkpoint's source enumeration byte-identical.
  aggregator_.observe_batch(batch);
  packets_captured_ += batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    sources_.insert(batch.src(i));
  }
}

EventDataset TelescopeCapture::finish() {
  aggregator_.finish();
  return EventDataset(collector_.take(), darknet_size_);
}

void TelescopeCapture::checkpoint(CheckpointWriter& writer) const {
  writer.tag(kCaptureTag);
  writer.u64(darknet_size_);
  writer.u64(packets_captured_);
  writer.u64(sources_.size());
  for (const net::Ipv4Address src : sources_) writer.u64(src.value());
  writer.u64(collector_.events().size());
  for (const DarknetEvent& e : collector_.events()) put_event(writer, e);
  aggregator_.checkpoint(writer);
}

void TelescopeCapture::restore(CheckpointReader& reader) {
  reader.expect_tag(kCaptureTag, "TelescopeCapture");
  if (reader.u64("darknet size") != darknet_size_) {
    throw ConfigMismatchError("TelescopeCapture darknet mismatch");
  }
  packets_captured_ = reader.u64("packets captured");
  const std::uint64_t source_count = reader.u64("source count");
  sources_.clear();
  sources_.reserve(static_cast<std::size_t>(source_count));
  for (std::uint64_t i = 0; i < source_count; ++i) {
    sources_.insert(net::Ipv4Address(static_cast<std::uint32_t>(reader.u64("source"))));
  }
  const std::uint64_t pending_count = reader.u64("pending event count");
  std::vector<DarknetEvent> pending;
  pending.reserve(static_cast<std::size_t>(pending_count));
  for (std::uint64_t i = 0; i < pending_count; ++i) {
    pending.push_back(get_event(reader));
  }
  collector_.restore(std::move(pending));
  aggregator_.restore(reader);
}

}  // namespace orion::telescope
