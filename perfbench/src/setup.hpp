// Seeded inputs shared by the workloads: the scenario (paper-scaled or
// tiny), Darknet-2 events, Merit-like border flows and detector settings.
// Every generator is seeded from the benchmark's --seed, so the program
// only ever sees generated inputs and the same seed gives the same inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "orion/detect/detector.hpp"
#include "orion/detect/streaming.hpp"
#include "orion/flowsim/flows.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/telescope/event.hpp"

namespace orionbench {

/// Sizes of one benchmark scale.
struct Plan {
  orion::scangen::ScenarioConfig scenario;
  /// Darknet-1 days replayed by the ingest workload.
  std::int64_t ingest_days = 4;
  /// The study's two flow windows, [start, end) days ("flows1", "flows2").
  std::int64_t flows1_start = 0;
  std::int64_t flows1_end = 0;
  std::int64_t flows2_start = 0;
  std::int64_t flows2_end = 0;
};

Plan plan_for(Size size, std::uint64_t seed);

orion::detect::DetectorConfig detector_config(
    const orion::scangen::Scenario& scenario);
orion::detect::StreamingConfig streaming_config(
    const orion::scangen::Scenario& scenario);

/// One year of Darknet-2 events, unsorted as the synthesizer emits them.
std::vector<orion::telescope::DarknetEvent> synth_events(
    const orion::scangen::Scenario& scenario, std::uint64_t seed);

/// Merit-like border flows of the Darknet-2 population over [start, end).
orion::flowsim::FlowDataset merit_flows(const orion::scangen::Scenario& scenario,
                                        std::int64_t start, std::int64_t end,
                                        std::uint64_t seed);

/// Per-day non-scanning darknet packets across a detection's window.
std::vector<std::uint64_t> noise_series(
    const orion::scangen::Scenario& scenario,
    const orion::detect::DetectionResult& detection);

std::uint64_t fingerprint(const std::vector<orion::telescope::DarknetEvent>& events);
std::uint64_t fingerprint(const orion::flowsim::FlowDataset& flows);

}  // namespace orionbench
