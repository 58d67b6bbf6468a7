#include "orion/charact/temporal.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "orion/netbase/flat_map.hpp"

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

TemporalTrends temporal_trends(const telescope::EventDataset& dataset,
                               const detect::DetectionResult& detection,
                               detect::Definition definition,
                               const std::vector<std::uint64_t>& noise_per_day) {
  const detect::DefinitionResult& def = detection.of(definition);
  const std::size_t days = def.daily.size();
  if (!noise_per_day.empty() && noise_per_day.size() != days) {
    throw std::invalid_argument("temporal_trends: noise series length mismatch");
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
  struct Counted {  // day indices from first_day; -1 = none counted yet
    std::int32_t last_daily;  // last start day counted in all_daily
    std::int32_t max_end;     // last day counted in all_active
  };
  net::FlatMap<net::Ipv4Address, Counted> counted;
  counted.reserve(dataset.unique_sources());
  std::vector<std::int64_t> active_delta(days + 1, 0);
  for (const telescope::DarknetEvent& e : dataset.events()) {
    const auto start = static_cast<std::int32_t>(e.day() - detection.first_day);
    const auto last = static_cast<std::int32_t>(
        std::min(e.end.day(), detection.last_day) - detection.first_day);
    Counted* c = counted.try_emplace(e.key.src, Counted{-1, -1}).first;
    if (c->last_daily != start) {
      c->last_daily = start;
      ++trends.all_daily[static_cast<std::size_t>(start)];
    }
    const std::int32_t from = std::max(start, c->max_end + 1);
    if (from <= last) {
      ++active_delta[static_cast<std::size_t>(from)];
      --active_delta[static_cast<std::size_t>(last + 1)];
      c->max_end = last;
    }
  }
  std::int64_t active = 0;
  for (std::size_t i = 0; i < days; ++i) {
    active += active_delta[i];
    trends.all_active[i] = static_cast<std::uint64_t>(active);
  }
  return trends;
}

}  // namespace orion::charact
