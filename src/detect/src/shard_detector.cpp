#include "orion/detect/shard_detector.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "orion/stats/ecdf.hpp"
#include "orion/telescope/checkpoint.hpp"

namespace orion::detect {

namespace {

constexpr std::uint64_t kSliceTag = telescope::checkpoint_tag('S', 'D', 'S', '1');

/// Sorted copies of the per-day tables, so checkpoints are
/// byte-deterministic regardless of hash-table order.
template <typename Map>
std::vector<typename Map::key_type> sorted_keys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void put_sampler(telescope::CheckpointWriter& w,
                 const stats::BottomKSampler& sampler) {
  w.u64(sampler.seen());
  const auto entries = sampler.sorted_entries();
  w.u64(entries.size());
  for (const auto& e : entries) {
    w.u64(e.rank);
    w.u64(e.value);
  }
}

void get_sampler(telescope::CheckpointReader& r,
                 stats::BottomKSampler& sampler) {
  const std::uint64_t seen = r.u64("sampler seen");
  const std::uint64_t size = r.u64("sampler size");
  if (size > sampler.capacity()) {
    throw std::runtime_error("checkpoint: bottom-k sample over capacity");
  }
  std::vector<stats::BottomKSampler::Entry> entries;
  entries.reserve(static_cast<std::size_t>(size));
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::uint64_t rank = r.u64("sampler rank");
    entries.push_back({rank, r.u64("sampler value")});
  }
  sampler.restore(seen, std::move(entries));
}

void put_ip_set(telescope::CheckpointWriter& w, const IpSet& ips) {
  std::vector<net::Ipv4Address> sorted(ips.begin(), ips.end());
  std::sort(sorted.begin(), sorted.end());
  w.u64(sorted.size());
  for (const net::Ipv4Address ip : sorted) w.u64(ip.value());
}

IpSet get_ip_set(telescope::CheckpointReader& r) {
  const std::uint64_t count = r.u64("ip set size");
  IpSet ips;
  ips.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ips.insert(net::Ipv4Address(static_cast<std::uint32_t>(r.u64("ip"))));
  }
  return ips;
}

}  // namespace

ShardDetectorSlice::ShardDetectorSlice(StreamingConfig config,
                                       std::uint64_t darknet_size)
    : config_(config), darknet_size_(darknet_size) {
  if (darknet_size == 0) {
    throw std::invalid_argument("ShardDetectorSlice: zero darknet size");
  }
}

void ShardDetectorSlice::DayPartial::add(const telescope::DarknetEvent& event,
                                         const StreamingConfig& config,
                                         std::uint64_t darknet_size) {
  packet_samples.add(packet_sample_id(event.key),
                     static_cast<std::uint64_t>(
                         event.start.since_epoch().total_nanos()),
                     event.packets);
  if (event.key.type != pkt::TrafficType::IcmpEchoReq) {
    ports[event.key.src].insert(event.key.dst_port);
  }
  // Definition 1 qualifies immediately (scale-free rule); D2 and D3 wait
  // for the day-close thresholds.
  if (event.dispersion(darknet_size) >= config.base.dispersion_threshold) {
    d1.insert(event.key.src);
  }
  auto& best = best_packets[event.key.src];
  best = std::max(best, event.packets);
}

void ShardDetectorSlice::observe(const telescope::DarknetEvent& event) {
  ++events_seen_;
  days_.try_emplace(event.day(), config_)
      .first->second.add(event, config_, darknet_size_);
}

void ShardDetectorSlice::checkpoint(telescope::CheckpointWriter& writer) const {
  writer.tag(kSliceTag);
  writer.f64(config_.base.dispersion_threshold);
  writer.f64(config_.base.packet_volume_alpha);
  writer.f64(config_.base.port_count_alpha);
  writer.u64(config_.ecdf_reservoir);
  writer.u64(config_.warmup_samples);
  writer.u64(config_.seed);
  writer.u64(darknet_size_);
  writer.u64(events_seen_);
  writer.u64(days_.size());
  for (const auto& [day, partial] : days_) {
    writer.i64(day);
    put_sampler(writer, partial.packet_samples);
    put_ip_set(writer, partial.d1);
    writer.u64(partial.best_packets.size());
    for (const net::Ipv4Address src : sorted_keys(partial.best_packets)) {
      writer.u64(src.value());
      writer.u64(partial.best_packets.at(src));
    }
    writer.u64(partial.ports.size());
    for (const net::Ipv4Address src : sorted_keys(partial.ports)) {
      const PortSet& ports = partial.ports.at(src);
      writer.u64(src.value());
      writer.u64(ports.size());
      ports.for_each([&](std::uint16_t port) { writer.u64(port); });
    }
  }
}

void ShardDetectorSlice::restore(telescope::CheckpointReader& reader) {
  reader.expect_tag(kSliceTag, "ShardDetectorSlice");
  const bool config_matches =
      std::bit_cast<std::uint64_t>(reader.f64("dispersion threshold")) ==
          std::bit_cast<std::uint64_t>(config_.base.dispersion_threshold) &&
      std::bit_cast<std::uint64_t>(reader.f64("packet alpha")) ==
          std::bit_cast<std::uint64_t>(config_.base.packet_volume_alpha) &&
      std::bit_cast<std::uint64_t>(reader.f64("port alpha")) ==
          std::bit_cast<std::uint64_t>(config_.base.port_count_alpha) &&
      reader.u64("sampler capacity") == config_.ecdf_reservoir &&
      reader.u64("warmup samples") == config_.warmup_samples &&
      reader.u64("seed") == config_.seed;
  if (!config_matches) {
    throw telescope::ConfigMismatchError(
        "ShardDetectorSlice configuration mismatch");
  }
  if (reader.u64("darknet size") != darknet_size_) {
    throw telescope::ConfigMismatchError("ShardDetectorSlice darknet mismatch");
  }
  events_seen_ = reader.u64("events seen");
  const std::uint64_t day_count = reader.u64("day count");
  days_.clear();
  for (std::uint64_t d = 0; d < day_count; ++d) {
    const std::int64_t day = reader.i64("day");
    auto [it, inserted] = days_.try_emplace(day, config_);
    if (!inserted) {
      throw std::runtime_error("checkpoint: duplicate slice day");
    }
    DayPartial& partial = it->second;
    get_sampler(reader, partial.packet_samples);
    partial.d1 = get_ip_set(reader);
    const std::uint64_t best_count = reader.u64("best source count");
    partial.best_packets.reserve(static_cast<std::size_t>(best_count));
    for (std::uint64_t i = 0; i < best_count; ++i) {
      const net::Ipv4Address src(
          static_cast<std::uint32_t>(reader.u64("best source")));
      partial.best_packets[src] = reader.u64("best packets");
    }
    const std::uint64_t port_sources = reader.u64("port source count");
    partial.ports.reserve(static_cast<std::size_t>(port_sources));
    for (std::uint64_t i = 0; i < port_sources; ++i) {
      const net::Ipv4Address src(
          static_cast<std::uint32_t>(reader.u64("port source")));
      const std::uint64_t port_count = reader.u64("port count");
      auto& ports = partial.ports[src];
      for (std::uint64_t p = 0; p < port_count; ++p) {
        ports.insert(static_cast<std::uint16_t>(reader.u64("port")));
      }
    }
  }
}

DayCloser::DayCloser(const StreamingConfig& config)
    : config_(config),
      packet_samples_(config.ecdf_reservoir, config.seed),
      port_samples_(config.ecdf_reservoir, port_sampler_seed(config.seed)) {}

StreamingDayResult DayCloser::close(
    std::int64_t day,
    std::span<const ShardDetectorSlice::DayPartial* const> partials) {
  for (const auto* partial : partials) {
    packet_samples_.merge(partial->packet_samples);
  }

  StreamingDayResult result;
  result.day = day;
  result.calibrated = packet_samples_.seen() >= config_.warmup_samples;
  if (result.calibrated) {
    const stats::Ecdf packet_ecdf(packet_samples_.values());
    result.packet_threshold =
        packet_ecdf.top_alpha_threshold(config_.base.packet_volume_alpha);
    if (port_samples_.seen() > 0) {
      const stats::Ecdf port_ecdf(port_samples_.values());
      result.port_threshold =
          port_ecdf.top_alpha_threshold(config_.base.port_count_alpha);
    }
    // Partials are disjoint by source, so the lists need no dedup.
    for (const auto* partial : partials) {
      result.daily[0].insert(result.daily[0].end(), partial->d1.begin(),
                             partial->d1.end());
      for (const auto& [src, packets] : partial->best_packets) {
        if (packets > result.packet_threshold) result.daily[1].push_back(src);
      }
      if (result.port_threshold > 0) {
        for (const auto& [src, ports] : partial->ports) {
          if (ports.size() >= result.port_threshold) {
            result.daily[2].push_back(src);
          }
        }
      }
    }
    for (std::size_t d = 0; d < 3; ++d) {
      std::sort(result.daily[d].begin(), result.daily[d].end());
      ips_[d].insert(result.daily[d].begin(), result.daily[d].end());
    }
  }

  // Sample identity (day, src) is unique across partitions.
  for (const auto* partial : partials) {
    for (const auto& [src, ports] : partial->ports) {
      port_samples_.add(static_cast<std::uint64_t>(day), src.value(),
                        ports.size());
    }
  }
  return result;
}

MergedDetection merge_shard_slices(
    const std::vector<const ShardDetectorSlice*>& slices) {
  MergedDetection merged;
  if (slices.empty()) return merged;
  const StreamingConfig& config = slices.front()->config();
  const std::uint64_t darknet_size = slices.front()->darknet_size();
  std::int64_t first_day = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_day = std::numeric_limits<std::int64_t>::min();
  for (const ShardDetectorSlice* slice : slices) {
    if (!(slice->config() == config) ||
        slice->darknet_size() != darknet_size) {
      throw std::invalid_argument(
          "merge_shard_slices: slices disagree on configuration");
    }
    merged.events_seen += slice->events_seen();
    if (slice->days().empty()) continue;
    first_day = std::min(first_day, slice->days().begin()->first);
    last_day = std::max(last_day, slice->days().rbegin()->first);
  }

  // The serial schedule: every day from the first event's through the
  // last, empty ones included.
  DayCloser closer(config);
  std::vector<const ShardDetectorSlice::DayPartial*> partials;
  for (std::int64_t day = first_day; day <= last_day; ++day) {
    partials.clear();
    for (const ShardDetectorSlice* slice : slices) {
      const auto it = slice->days().find(day);
      if (it != slice->days().end()) partials.push_back(&it->second);
    }
    merged.days.push_back(closer.close(day, partials));
  }
  merged.ips = std::move(closer).ips();
  return merged;
}

}  // namespace orion::detect
