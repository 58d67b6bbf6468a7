#include "orion/detect/streaming.hpp"

#include <stdexcept>

namespace orion::detect {

StreamingDetector::StreamingDetector(StreamingConfig config,
                                     std::uint64_t darknet_size)
    : config_(config),
      darknet_size_(darknet_size),
      open_(config),
      closer_(config) {
  if (darknet_size == 0) {
    throw std::invalid_argument("StreamingDetector: zero darknet size");
  }
}

std::vector<StreamingDayResult> StreamingDetector::observe(
    const telescope::DarknetEvent& event) {
  std::vector<StreamingDayResult> out;
  const std::int64_t day = event.day();
  if (day_open_ && day < open_day_) {
    throw std::invalid_argument(
        "StreamingDetector::observe: events must be day-ordered");
  }
  if (!day_open_) {
    open_day_ = day;
    day_open_ = true;
  }
  while (open_day_ < day) {
    out.push_back(close_open_day());
    ++open_day_;
  }
  open_.add(event, config_, darknet_size_);
  return out;
}

StreamingDayResult StreamingDetector::close_open_day() {
  const ShardDetectorSlice::DayPartial* const open[] = {&open_};
  StreamingDayResult result = closer_.close(open_day_, open);
  open_ = ShardDetectorSlice::DayPartial(config_);
  return result;
}

std::optional<StreamingDayResult> StreamingDetector::finish() {
  if (!day_open_) return std::nullopt;
  day_open_ = false;
  return close_open_day();
}

}  // namespace orion::detect
