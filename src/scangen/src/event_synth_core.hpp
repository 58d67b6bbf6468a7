// synthesize_events with an explicit thread count. The public function
// calls it with net::scan_threads(event bound); the result is identical
// for every n_threads >= 1 (pinned by tests/scangen_test.cpp). Internal
// to the scangen module.
#pragma once

#include <cstddef>
#include <vector>

#include "orion/scangen/event_synth.hpp"

namespace orion::scangen::detail {

/// Cuts the scanners into n_threads contiguous ranges of near-equal event
/// bound, synthesizes each range on its own thread into a buffer reserved
/// on the calling thread, sorts (start, range, index) proxies with the
/// serial path's comparator and gathers the events in parallel.
std::vector<telescope::DarknetEvent> synthesize_events(
    const Population& population, const EventSynthConfig& config,
    std::size_t n_threads);

}  // namespace orion::scangen::detail
