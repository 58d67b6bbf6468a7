#include "orion/charact/temporal.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "charact_core.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/netbase/parallel.hpp"

namespace orion::charact {

double TemporalTrends::mean(const std::vector<std::uint64_t>& series) const {
  if (series.empty()) return 0.0;
  std::uint64_t total = 0;
  for (const std::uint64_t v : series) total += v;
  return static_cast<double>(total) / static_cast<double>(series.size());
}

double TemporalTrends::ah_packet_share() const {
  std::uint64_t ah = 0, total = 0;
  for (std::size_t i = 0; i < total_packets.size(); ++i) {
    ah += daily_ah_packets[i];
    total += total_packets[i];
  }
  return total == 0 ? 0.0 : static_cast<double>(ah) / static_cast<double>(total);
}

double TemporalTrends::ah_ip_share() const {
  std::uint64_t ah = 0, all = 0;
  for (std::size_t i = 0; i < all_daily.size(); ++i) {
    ah += daily_ah[i];
    all += all_daily[i];
  }
  return all == 0 ? 0.0 : static_cast<double>(ah) / static_cast<double>(all);
}

TemporalTrends detail::temporal_trends(const telescope::EventDataset& dataset,
                                       const detect::DetectionResult& detection,
                                       detect::Definition definition,
                                       const std::vector<std::uint64_t>& noise_per_day,
                                       std::size_t n_threads) {
  const detect::DefinitionResult& def = detection.of(definition);
  const std::size_t days = def.daily.size();
  if (!noise_per_day.empty() && noise_per_day.size() != days) {
    throw std::invalid_argument("temporal_trends: noise series length mismatch");
  }
  if (dataset.event_count() > 0 && (dataset.first_day() < detection.first_day ||
                                    dataset.last_day() > detection.last_day)) {
    throw std::invalid_argument(
        "temporal_trends: dataset days outside the detection window");
  }

  TemporalTrends trends;
  trends.first_day = detection.first_day;
  trends.daily_ah.resize(days);
  trends.active_ah.resize(days);
  trends.all_daily.assign(days, 0);
  trends.all_active.assign(days, 0);
  trends.daily_ah_packets = def.daily_ah_packets;
  trends.total_packets = detection.total_event_packets_per_day;

  for (std::size_t i = 0; i < days; ++i) {
    trends.daily_ah[i] = def.daily[i].size();
    trends.active_ah[i] = def.active[i].size();
    if (!noise_per_day.empty()) trends.total_packets[i] += noise_per_day[i];
  }

  // All-scanner accounting straight from the events, one probe per event.
  // Events come in start order, so every interval already counted for a
  // source began on or before this event's start day s: the days from s
  // onward already counted for it are exactly [s, max_end]. Only the
  // days past max_end are new, and they go into a difference array.
  // Thread t keeps the state of the sources that hash to t; each source's
  // events still arrive in start order, so the per-thread series add up.
  struct Counted {  // day indices from first_day; -1 = none counted yet
    std::int32_t last_daily;  // last start day counted in all_daily
    std::int32_t max_end;     // last day counted in all_active
  };
  struct Part {
    std::vector<std::uint64_t> all_daily;
    std::vector<std::int64_t> active_delta;
  };
  std::vector<Part> parts(n_threads);
  net::fork_join(n_threads, [&](std::size_t t) {
    Part& part = parts[t];
    part.all_daily.assign(days, 0);
    part.active_delta.assign(days + 1, 0);
    net::FlatMap<net::Ipv4Address, Counted> counted;
    counted.reserve(dataset.unique_sources() / n_threads);
    for (const telescope::DarknetEvent& e : dataset.events()) {
      if (net::key_part(e.key.src.value(), n_threads) != t) continue;
      const auto start = static_cast<std::int32_t>(e.day() - detection.first_day);
      const auto last = static_cast<std::int32_t>(
          std::min(e.end.day(), detection.last_day) - detection.first_day);
      Counted* c = counted.try_emplace(e.key.src, Counted{-1, -1}).first;
      if (c->last_daily != start) {
        c->last_daily = start;
        ++part.all_daily[static_cast<std::size_t>(start)];
      }
      const std::int32_t from = std::max(start, c->max_end + 1);
      if (from <= last) {
        ++part.active_delta[static_cast<std::size_t>(from)];
        --part.active_delta[static_cast<std::size_t>(last + 1)];
        c->max_end = last;
      }
    }
  });
  std::int64_t active = 0;
  for (std::size_t i = 0; i < days; ++i) {
    for (const Part& part : parts) {
      trends.all_daily[i] += part.all_daily[i];
      active += part.active_delta[i];
    }
    trends.all_active[i] = static_cast<std::uint64_t>(active);
  }
  return trends;
}

TemporalTrends temporal_trends(const telescope::EventDataset& dataset,
                               const detect::DetectionResult& detection,
                               detect::Definition definition,
                               const std::vector<std::uint64_t>& noise_per_day) {
  return detail::temporal_trends(dataset, detection, definition, noise_per_day,
                                 net::scan_threads(dataset.event_count()));
}

}  // namespace orion::charact
