// The Fig 3 / Fig 4 / Table 5 builders with an explicit thread count.
// The public functions call these with net::scan_threads(event count);
// every result is identical for every n_threads >= 1 (pinned by
// tests/charact_test.cpp). Internal to the charact module.
#pragma once

#include <cstddef>
#include <vector>

#include "orion/charact/origins.hpp"
#include "orion/charact/portfig.hpp"
#include "orion/charact/temporal.hpp"

namespace orion::charact::detail {

/// Each thread scans every event but tallies only the (port, type) keys
/// that hash to it (net::key_part); the disjoint tables are concatenated
/// and ranked by a total order.
std::vector<PortRow> top_ports(const telescope::EventDataset& dataset,
                               const detect::IpSet& ah, std::size_t top_n,
                               std::size_t n_threads);

/// Each thread scans every event but keeps the all-scanner state of only
/// the sources that hash to it (net::key_part), so the per-source
/// start-order argument holds unchanged and the per-thread series add up.
TemporalTrends temporal_trends(const telescope::EventDataset& dataset,
                               const detect::DetectionResult& detection,
                               detect::Definition definition,
                               const std::vector<std::uint64_t>& noise_per_day,
                               std::size_t n_threads);

/// Each thread sums a contiguous event range's packets per AS aggregate.
OriginTable origin_table(const telescope::EventDataset& dataset,
                         const detect::IpSet& ah, const asdb::Registry& registry,
                         const intel::AckedScannerList* acked,
                         const asdb::ReverseDns* rdns, std::size_t top_n,
                         std::size_t n_threads);

}  // namespace orion::charact::detail
