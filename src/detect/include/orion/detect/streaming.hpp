// Online AH detection for live telescope deployments.
//
// The batch AggressiveScannerDetector calibrates its ECDF thresholds over
// the whole dataset — fine for retrospective studies, impossible for the
// daily published lists the paper proposes. StreamingDetector consumes
// events in start-time order, keeps bounded-memory rolling ECDFs over
// months of traffic, and emits each day's list using only thresholds
// calibrated on data seen BEFORE that day ends.
//
// It runs the sharded pipeline's own detector serially
// (shard_detector.hpp): one open-day ShardDetectorSlice::DayPartial takes
// each event, and a DayCloser closes the day when the first event of a
// later day arrives. The closer holds every closed-day quantity (rolling
// bottom-k samples, cumulative AH sets), so ParallelPipeline's merge and
// this detector publish byte-identical lists (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "orion/detect/shard_detector.hpp"

namespace orion::detect {

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
    return closer_.ips()[static_cast<std::size_t>(d)];
  }

 private:
  StreamingDayResult close_open_day();

  StreamingConfig config_;
  std::uint64_t darknet_size_;
  bool day_open_ = false;
  std::int64_t open_day_ = 0;
  ShardDetectorSlice::DayPartial open_;
  DayCloser closer_;
};

}  // namespace orion::detect
