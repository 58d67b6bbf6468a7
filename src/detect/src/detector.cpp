#include "orion/detect/detector.hpp"

#include <stdexcept>

#include "detector_core.hpp"
#include "sources.hpp"

namespace orion::detect {

namespace {

double mean_size(const std::vector<std::vector<net::Ipv4Address>>& per_day) {
  if (per_day.empty()) return 0.0;
  std::uint64_t total = 0;
  for (const auto& day : per_day) total += day.size();
  return static_cast<double>(total) / static_cast<double>(per_day.size());
}

}  // namespace

double DefinitionResult::mean_daily_count() const { return mean_size(daily); }
double DefinitionResult::mean_active_count() const { return mean_size(active); }

AggressiveScannerDetector::AggressiveScannerDetector(DetectorConfig config)
    : config_(config) {
  if (config_.dispersion_threshold <= 0 || config_.dispersion_threshold > 1) {
    throw std::invalid_argument("DetectorConfig: dispersion threshold in (0,1]");
  }
  if (config_.packet_volume_alpha <= 0 || config_.packet_volume_alpha >= 1 ||
      config_.port_count_alpha <= 0 || config_.port_count_alpha >= 1) {
    throw std::invalid_argument("DetectorConfig: alphas must be in (0,1)");
  }
}

DetectionResult AggressiveScannerDetector::detect(
    const telescope::EventDataset& dataset) const {
  return detail::detect_core(config_, detail::DatasetSource{dataset});
}

DetectionResult AggressiveScannerDetector::detect(
    const store::MappedEventStore& store) const {
  return detail::detect_core(config_, detail::StoreSource{store});
}

}  // namespace orion::detect
