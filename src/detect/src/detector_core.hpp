// The detection algorithm, templated over its event source so the
// row-oriented EventDataset path and the zero-copy ODE2 column-scan path
// run the exact same code (and therefore produce identical results —
// pinned by tests/store_test.cpp). Internal to the detect module.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/stats/ecdf.hpp"

namespace orion::detect::detail {

/// Source must provide darknet_size(), event_count(), first_day(),
/// last_day(), and for_each_event(fn) where fn receives a DarknetEvent or
/// any type with the same read interface (key, start, end, packets,
/// unique_dests, day(), dispersion()), in dataset (start, key) order.
/// The passes below rely on one consequence of that order: event days are
/// nondecreasing and lie in [first_day, last_day]. A day that regresses
/// or leaves the window throws std::logic_error.
template <typename Source>
DetectionResult detect_core(const DetectorConfig& config, const Source& source) {
  DetectionResult result;
  result.darknet_size = source.darknet_size();
  result.total_events = source.event_count();
  result.first_day = source.first_day();
  result.last_day = source.last_day();
  if (source.event_count() == 0) return result;

  const auto day_count =
      static_cast<std::size_t>(result.last_day - result.first_day + 1);
  const auto day_index = [&](std::int64_t day) {
    return static_cast<std::size_t>(day - result.first_day);
  };

  for (DefinitionResult& def : result.by_definition) {
    def.daily.resize(day_count);
    def.active.resize(day_count);
    def.daily_ah_packets.assign(day_count, 0);
  }
  result.total_event_packets_per_day.assign(day_count, 0);

  // --- Pass 1: calibrate ECDF thresholds (Definitions 2 and 3).
  // Distinct ports per (source, day) without a per-pair set: the open
  // day's (src << 16 | port) words are buffered, and when the day closes
  // they are sorted and deduplicated, so each source's run length is its
  // distinct-port count. The counts land in day-then-source order, which
  // no consumer depends on (the ECDF is a multiset, D3's daily/active
  // are sort_unique'd below, ips is a set).
  struct SourceDay {
    net::Ipv4Address src;
    std::uint32_t day_index = 0;
    std::uint32_t ports = 0;
  };
  std::vector<SourceDay> source_days;
  std::vector<std::uint64_t> day_words;
  std::vector<std::uint64_t> packets;
  packets.reserve(source.event_count());
  std::int64_t open_day = result.first_day;
  const auto close_day = [&] {
    std::sort(day_words.begin(), day_words.end());
    day_words.erase(std::unique(day_words.begin(), day_words.end()),
                    day_words.end());
    const auto index = static_cast<std::uint32_t>(day_index(open_day));
    for (std::size_t i = 0; i < day_words.size();) {
      const std::uint64_t src = day_words[i] >> 16;
      std::size_t j = i + 1;
      while (j < day_words.size() && (day_words[j] >> 16) == src) ++j;
      source_days.push_back({net::Ipv4Address(static_cast<std::uint32_t>(src)),
                             index, static_cast<std::uint32_t>(j - i)});
      i = j;
    }
    day_words.clear();
  };
  source.for_each_event([&](const auto& e) {
    const std::int64_t day = e.day();
    if (day != open_day) {
      if (day < open_day || day > result.last_day) {
        throw std::logic_error(
            "detect: events must come in nondecreasing day order within "
            "[first_day, last_day]");
      }
      close_day();
      open_day = day;
    }
    packets.push_back(e.packets);
    if (e.key.type != pkt::TrafficType::IcmpEchoReq) {
      day_words.push_back((std::uint64_t{e.key.src.value()} << 16) |
                          e.key.dst_port);
    }
  });
  close_day();
  const stats::Ecdf packet_ecdf(std::move(packets));
  std::vector<std::uint64_t> port_counts;
  port_counts.reserve(source_days.size());
  for (const SourceDay& sd : source_days) port_counts.push_back(sd.ports);
  const stats::Ecdf port_ecdf(std::move(port_counts));

  DefinitionResult& d1 = result.of(Definition::AddressDispersion);
  DefinitionResult& d2 = result.of(Definition::PacketVolume);
  DefinitionResult& d3 = result.of(Definition::DistinctPorts);
  d2.threshold = packet_ecdf.top_alpha_threshold(config.packet_volume_alpha);
  if (port_ecdf.sample_count() > 0) {
    d3.threshold = port_ecdf.top_alpha_threshold(config.port_count_alpha);
  }

  // --- Pass 2: event-level qualification (Definitions 1 and 2).
  const double min_dispersion = config.dispersion_threshold;
  source.for_each_event([&](const auto& e) {
    result.total_event_packets_per_day[day_index(e.day())] += e.packets;

    const bool q1 = e.dispersion(result.darknet_size) >= min_dispersion;
    const bool q2 = e.packets > d2.threshold;
    const std::int64_t start_day = e.day();
    const std::int64_t end_day = std::min(e.end.day(), result.last_day);
    for (auto [def, qualifies] : {std::pair{&d1, q1}, std::pair{&d2, q2}}) {
      if (!qualifies) continue;
      ++def->qualifying_events;
      def->ips.insert(e.key.src);
      def->daily[day_index(start_day)].push_back(e.key.src);
      for (std::int64_t day = start_day; day <= end_day; ++day) {
        def->active[day_index(day)].push_back(e.key.src);
      }
    }
  });

  // --- Definition 3: per-(source, day) distinct-port qualification.
  // Sources qualify on days where their port count crosses the threshold;
  // the "event interval" of a D3 qualification is the day itself.
  if (d3.threshold > 0) {
    for (const SourceDay& sd : source_days) {
      if (sd.ports < d3.threshold) continue;
      ++d3.qualifying_events;
      d3.ips.insert(sd.src);
      d3.daily[sd.day_index].push_back(sd.src);
      d3.active[sd.day_index].push_back(sd.src);
    }
  }

  const auto sort_unique = [](std::vector<net::Ipv4Address>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (DefinitionResult& def : result.by_definition) {
    for (auto& day : def.daily) sort_unique(day);
    for (auto& day : def.active) sort_unique(day);
  }

  // --- Daily-AH packet attribution (Fig 3 right): all packets of events
  // starting on day d whose source is among that day's daily AH. One
  // flat map per day (source -> bit k set when it is a daily AH under
  // definition k) answers all three definitions with one probe per event.
  net::FlatMap<net::Ipv4Address, std::uint8_t> daily_mask;
  std::size_t mask_index = day_count;  // no day loaded yet
  source.for_each_event([&](const auto& e) {
    const std::size_t index = day_index(e.day());
    if (index != mask_index) {
      mask_index = index;
      daily_mask.clear();
      for (std::size_t k = 0; k < result.by_definition.size(); ++k) {
        for (const net::Ipv4Address src : result.by_definition[k].daily[index]) {
          *daily_mask.try_emplace(src, std::uint8_t{0}).first |=
              static_cast<std::uint8_t>(1u << k);
        }
      }
    }
    const std::uint8_t* mask = daily_mask.find(e.key.src);
    if (mask == nullptr) return;
    for (std::size_t k = 0; k < result.by_definition.size(); ++k) {
      if ((*mask >> k) & 1u) {
        result.by_definition[k].daily_ah_packets[index] += e.packets;
      }
    }
  });
  return result;
}

}  // namespace orion::detect::detail
