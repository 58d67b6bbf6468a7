// Online AH detection for live telescope deployments.
//
// The batch AggressiveScannerDetector calibrates its ECDF thresholds over
// the whole dataset — fine for retrospective studies, impossible for the
// daily published lists the paper proposes. StreamingDetector consumes
// events in start-time order, keeps bounded-memory rolling ECDFs over
// months of traffic, and emits each day's list using only thresholds
// calibrated on data seen BEFORE that day ends.
//
// The rolling ECDFs are bottom-k samples (stats/bottomk.hpp), not
// reservoirs: a bottom-k sample is a pure function of the events seen, so
// the sharded ParallelPipeline can keep one sampler per shard and merge
// them into the exact sample this serial detector holds — the root of the
// pipeline's byte-identical-results guarantee (DESIGN.md §9). This serial
// detector is kept as the independent reference that the sharded merge is
// tested against; live deployments run ParallelPipeline.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/detect/port_set.hpp"
#include "orion/stats/bottomk.hpp"
#include "orion/telescope/event.hpp"

namespace orion::detect {

struct StreamingConfig {
  DetectorConfig base;
  /// Bottom-k sample capacity for each rolling ECDF.
  std::size_t ecdf_reservoir = 200000;
  /// Days emit no list until this many packet samples accumulated
  /// (threshold estimates are garbage on a cold start).
  std::uint64_t warmup_samples = 5000;
  std::uint64_t seed = 71;

  friend constexpr bool operator==(const StreamingConfig&,
                                   const StreamingConfig&) = default;
};

/// One emitted day of results.
struct StreamingDayResult {
  std::int64_t day = 0;
  bool calibrated = false;  // false during warm-up: lists withheld
  /// Per definition: the sources that newly qualified this day.
  std::array<std::vector<net::Ipv4Address>, 3> daily;
  /// Thresholds in force when the day closed (D2 packets, D3 ports).
  std::uint64_t packet_threshold = 0;
  std::uint64_t port_threshold = 0;

  friend bool operator==(const StreamingDayResult&,
                         const StreamingDayResult&) = default;
};

/// Stable per-event identity used to rank packet-volume samples; shared
/// by the serial detector and the per-shard slices so both draw the same
/// bottom-k sample.
inline std::uint64_t packet_sample_id(const telescope::EventKey& key) {
  return (std::uint64_t{key.src.value()} << 24) |
         (std::uint64_t{key.dst_port} << 8) |
         static_cast<std::uint64_t>(key.type);
}

/// Derived seed of the daily port-count sampler (packet sampler uses the
/// configured seed directly).
constexpr std::uint64_t port_sampler_seed(std::uint64_t seed) {
  return seed ^ 0xF00Dull;
}

class StreamingDetector {
 public:
  StreamingDetector(StreamingConfig config, std::uint64_t darknet_size);

  /// Feeds one event (events must arrive ordered by start time; a
  /// regression throws std::invalid_argument). Returns the completed
  /// day's result whenever the event's start crosses a day boundary.
  std::vector<StreamingDayResult> observe(const telescope::DarknetEvent& event);

  /// Flushes the final partial day.
  std::optional<StreamingDayResult> finish();

  /// Dataset-wide AH so far, per definition.
  const IpSet& ips(Definition d) const {
    return ips_[static_cast<std::size_t>(d)];
  }

 private:
  StreamingDayResult close_day();

  StreamingConfig config_;
  std::uint64_t darknet_size_;

  stats::BottomKSampler packet_samples_;
  stats::BottomKSampler port_samples_;

  bool day_open_ = false;
  std::int64_t current_day_ = 0;
  std::array<std::unordered_set<net::Ipv4Address>, 3> day_daily_;
  std::unordered_map<net::Ipv4Address, PortSet> day_ports_;
  std::unordered_map<net::Ipv4Address, std::uint64_t> day_best_packets_;

  std::array<IpSet, 3> ips_;
};

}  // namespace orion::detect
