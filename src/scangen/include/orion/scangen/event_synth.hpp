// Analytic darknet-event synthesis: converts scanner profiles directly
// into the DarknetEvents the aggregator WOULD produce, without
// materializing packets. This is the fast path for longitudinal (multi-
// month) runs; property tests verify it against the packet-level
// aggregator on matched configurations.
#pragma once

#include <cstdint>
#include <vector>

#include "orion/scangen/population.hpp"
#include "orion/telescope/event.hpp"

namespace orion::scangen {

struct EventSynthConfig {
  std::uint64_t darknet_size = 32768;
  std::uint64_t seed = 7;
};

/// Synthesizes all darknet events for one scanner. Each (session, port)
/// yields one event with
///   unique_dests ~ Binomial(darknet_size, coverage)
///   packets      = repeats * unique_dests
/// and start/end jittered inside the session window the way first/last
/// arrivals of a uniform probe stream would fall. Port-sweep sessions
/// yield one (usually tiny) event per swept port that reached the darknet.
void synthesize_scanner_events(const ScannerProfile& scanner,
                               const EventSynthConfig& config,
                               std::vector<telescope::DarknetEvent>& out);

/// Synthesizes the full dataset for a population, sorted by start. Runs
/// on up to net::scan_threads(event bound) threads; the result is the
/// same at every thread count.
std::vector<telescope::DarknetEvent> synthesize_events(
    const Population& population, const EventSynthConfig& config);

}  // namespace orion::scangen
