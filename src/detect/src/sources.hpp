// detect_core's two Source adapters: the materialized EventDataset and
// the zero-copy MappedEventStore. Both visit rows in dataset order, so the
// results are identical (tests/store_test.cpp). Internal to the detect
// module.
#pragma once

#include <algorithm>
#include <cstdint>

#include "orion/store/mapped.hpp"
#include "orion/telescope/capture.hpp"

namespace orion::detect::detail {

struct DatasetSource {
  const telescope::EventDataset& dataset;

  std::uint64_t darknet_size() const { return dataset.darknet_size(); }
  std::uint64_t event_count() const { return dataset.event_count(); }
  std::int64_t first_day() const { return dataset.first_day(); }
  std::int64_t last_day() const { return dataset.last_day(); }
  std::uint64_t day_begin(std::int64_t day) const {
    const auto& events = dataset.events();
    return static_cast<std::uint64_t>(
        std::partition_point(events.begin(), events.end(),
                             [&](const telescope::DarknetEvent& e) {
                               return e.day() < day;
                             }) -
        events.begin());
  }
  template <typename Fn>
  void for_each_event_in_rows(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    const auto& events = dataset.events();
    for (std::uint64_t i = lo; i < hi; ++i) fn(events[static_cast<std::size_t>(i)]);
  }
};

/// Column scans of the mapped blocks; day_begin is the O(1) day index.
struct StoreSource {
  const store::MappedEventStore& store;

  std::uint64_t darknet_size() const { return store.darknet_size(); }
  std::uint64_t event_count() const { return store.event_count(); }
  std::int64_t first_day() const { return store.first_day(); }
  std::int64_t last_day() const { return store.last_day(); }
  std::uint64_t day_begin(std::int64_t day) const { return store.day_range(day).first; }
  template <typename Fn>
  void for_each_event_in_rows(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    store.for_each_event_in_rows(lo, hi, fn);
  }
};

}  // namespace orion::detect::detail
