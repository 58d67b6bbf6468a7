// The online AH detector, one implementation per job: the per-event
// update of a day's partial state (ShardDetectorSlice::DayPartial::add)
// and the incremental day-close that calibrates, qualifies and publishes
// one day from its partials (DayCloser). Two callers share both:
// StreamingDetector (streaming.hpp) keeps one open-day partial and feeds
// events in start order; ParallelPipeline keeps one ShardDetectorSlice per
// shard and merge_shard_slices closes every day of the merged window.
//
// Why the sharded path gives the serial answer: every quantity a day's
// partial tracks is keyed by source IP (D1 qualifiers, per-source packet
// maxima for D2, per-source distinct-port sets for D3), so a
// hash-of-source partition puts each source's whole state in one shard.
// The only cross-source state — the rolling ECDF samples behind the D2/D3
// thresholds — is kept as bottom-k samples, which merge exactly
// (stats/bottomk.hpp). A slice therefore never calibrates or publishes
// anything; it accumulates per-day partials in ANY event order, and
// closing a day from the union of its per-shard partials is closing it
// from the serial partial (DESIGN.md §9). What a day-close must publish is
// checked against a naive per-day recomputation
// (StreamingDetector.MatchesNaiveDayCloseOracle in tests/detect_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/detect/port_set.hpp"
#include "orion/stats/bottomk.hpp"
#include "orion/telescope/event.hpp"

namespace orion::telescope {
class CheckpointReader;
class CheckpointWriter;
}  // namespace orion::telescope

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

/// Stable per-event identity used to rank packet-volume samples, so every
/// partition of the events draws the same bottom-k sample.
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

class ShardDetectorSlice {
 public:
  ShardDetectorSlice(StreamingConfig config, std::uint64_t darknet_size);

  /// Feeds one closed event. Order does not matter — state is bucketed by
  /// the event's start day and order-independent within a day.
  void observe(const telescope::DarknetEvent& event);

  std::uint64_t events_seen() const { return events_seen_; }
  const StreamingConfig& config() const { return config_; }
  std::uint64_t darknet_size() const { return darknet_size_; }

  /// One day's accumulated state from one source partition.
  struct DayPartial {
    /// D1 qualifiers (dispersion is scale-free: decidable in-shard).
    IpSet d1;
    /// Per-source max event packets — D2 candidates for the day.
    std::unordered_map<net::Ipv4Address, std::uint64_t> best_packets;
    /// Per-source distinct darknet ports — D3 candidates for the day.
    std::unordered_map<net::Ipv4Address, PortSet> ports;
    /// The day's per-event packet-volume samples. Day-local truncation to
    /// k is lossless for the merge: an entry outside its own day's
    /// bottom-k is outside every cumulative bottom-k that includes that
    /// day.
    stats::BottomKSampler packet_samples;

    explicit DayPartial(const StreamingConfig& config)
        : packet_samples(config.ecdf_reservoir, config.seed) {}

    /// The per-event update: a commutative fold of one event of this day.
    void add(const telescope::DarknetEvent& event,
             const StreamingConfig& config, std::uint64_t darknet_size);
  };

  /// Days this shard saw events for, in day order.
  const std::map<std::int64_t, DayPartial>& days() const { return days_; }

  /// Snapshots the slice (config-echoed, sorted/byte-deterministic);
  /// restore rejects a mismatched configuration or darknet size.
  void checkpoint(telescope::CheckpointWriter& writer) const;
  void restore(telescope::CheckpointReader& reader);

 private:
  StreamingConfig config_;
  std::uint64_t darknet_size_;
  std::map<std::int64_t, DayPartial> days_;
  std::uint64_t events_seen_ = 0;
};

/// The incremental day-close. Owns the rolling packet-volume and
/// port-count bottom-k samples and the cumulative AH sets; close() is
/// called once per day, in day order, empty days included.
class DayCloser {
 public:
  explicit DayCloser(const StreamingConfig& config);

  /// Closes `day` from its partials (disjoint by source): fold their
  /// packet samples into the rolling sample (today's events inform
  /// today's threshold), calibrate, qualify each definition, publish the
  /// sorted lists (withheld during warm-up), and only then fold the day's
  /// per-source port counts, which calibrate later days only.
  StreamingDayResult close(
      std::int64_t day,
      std::span<const ShardDetectorSlice::DayPartial* const> partials);

  /// Dataset-wide AH so far, per definition.
  const std::array<IpSet, 3>& ips() const& { return ips_; }
  std::array<IpSet, 3> ips() && { return std::move(ips_); }

 private:
  StreamingConfig config_;
  stats::BottomKSampler packet_samples_;
  stats::BottomKSampler port_samples_;
  std::array<IpSet, 3> ips_;
};

/// The merged detection output: what a serial StreamingDetector would
/// have returned from observe()/finish() plus its cumulative AH sets.
struct MergedDetection {
  std::vector<StreamingDayResult> days;
  std::array<IpSet, 3> ips;
  std::uint64_t events_seen = 0;
};

/// Deterministically merges shard slices (which must share config and
/// darknet size — std::invalid_argument otherwise): one DayCloser closes
/// every day from the earliest to the latest seen, each from the slices'
/// partials for it.
MergedDetection merge_shard_slices(
    const std::vector<const ShardDetectorSlice*>& slices);

}  // namespace orion::detect
