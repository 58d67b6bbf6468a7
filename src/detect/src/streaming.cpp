#include "orion/detect/streaming.hpp"

#include <algorithm>
#include <stdexcept>

#include "orion/stats/ecdf.hpp"

namespace orion::detect {

StreamingDetector::StreamingDetector(StreamingConfig config,
                                     std::uint64_t darknet_size)
    : config_(config),
      darknet_size_(darknet_size),
      packet_samples_(config.ecdf_reservoir, config.seed),
      port_samples_(config.ecdf_reservoir, port_sampler_seed(config.seed)) {
  if (darknet_size == 0) {
    throw std::invalid_argument("StreamingDetector: zero darknet size");
  }
}

std::vector<StreamingDayResult> StreamingDetector::observe(
    const telescope::DarknetEvent& event) {
  std::vector<StreamingDayResult> out;
  const std::int64_t day = event.day();
  if (day_open_ && day < current_day_) {
    throw std::invalid_argument(
        "StreamingDetector::observe: events must be day-ordered");
  }
  if (!day_open_) {
    current_day_ = day;
    day_open_ = true;
  }
  while (current_day_ < day) {
    out.push_back(close_day());
    ++current_day_;
  }

  packet_samples_.add(packet_sample_id(event.key),
                      static_cast<std::uint64_t>(
                          event.start.since_epoch().total_nanos()),
                      event.packets);
  if (event.key.type != pkt::TrafficType::IcmpEchoReq) {
    day_ports_[event.key.src].insert(event.key.dst_port);
  }

  // Definition 1 qualifies immediately (scale-free rule).
  if (event.dispersion(darknet_size_) >= config_.base.dispersion_threshold) {
    day_daily_[0].insert(event.key.src);
  }
  // Definition 2 is evaluated when the day closes, against the threshold
  // in force then; remember candidates cheaply by keeping per-day events'
  // packet maxima per source.
  auto& best = day_best_packets_[event.key.src];
  best = std::max(best, event.packets);
  return out;
}

StreamingDayResult StreamingDetector::close_day() {
  StreamingDayResult result;
  result.day = current_day_;

  // Calibrate thresholds on everything seen so far (including today: the
  // list for day D is published after D closes, so D's samples are known).
  result.calibrated = packet_samples_.seen() >= config_.warmup_samples;
  if (result.calibrated) {
    stats::Ecdf packet_ecdf(packet_samples_.values());
    result.packet_threshold =
        packet_ecdf.top_alpha_threshold(config_.base.packet_volume_alpha);
    if (port_samples_.seen() > 0) {
      stats::Ecdf port_ecdf(port_samples_.values());
      result.port_threshold =
          port_ecdf.top_alpha_threshold(config_.base.port_count_alpha);
    }

    for (const auto& [src, packets] : day_best_packets_) {
      if (packets > result.packet_threshold) day_daily_[1].insert(src);
    }
    if (result.port_threshold > 0) {
      for (const auto& [src, ports] : day_ports_) {
        if (ports.size() >= result.port_threshold) day_daily_[2].insert(src);
      }
    }
    for (std::size_t d = 0; d < 3; ++d) {
      result.daily[d].assign(day_daily_[d].begin(), day_daily_[d].end());
      std::sort(result.daily[d].begin(), result.daily[d].end());
      for (const net::Ipv4Address ip : result.daily[d]) ips_[d].insert(ip);
    }
  }

  // The day's per-source port counts become ECDF samples for future days.
  for (const auto& [src, ports] : day_ports_) {
    port_samples_.add(static_cast<std::uint64_t>(current_day_), src.value(),
                      ports.size());
  }

  // Rollover: drop the day's working sets but keep their capacity — the
  // next day's source population is about the same size.
  const std::size_t port_sources = day_ports_.size();
  const std::size_t best_sources = day_best_packets_.size();
  for (auto& set : day_daily_) set.clear();
  day_ports_.clear();
  day_ports_.reserve(port_sources);
  day_best_packets_.clear();
  day_best_packets_.reserve(best_sources);
  return result;
}

std::optional<StreamingDayResult> StreamingDetector::finish() {
  if (!day_open_) return std::nullopt;
  day_open_ = false;
  return close_day();
}

}  // namespace orion::detect
