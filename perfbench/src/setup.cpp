#include "setup.hpp"

#include "common.hpp"
#include "orion/flowsim/routing.hpp"
#include "orion/scangen/event_synth.hpp"

namespace orionbench {

using namespace orion;

Plan plan_for(Size size, std::uint64_t seed) {
  Plan plan;
  if (size == Size::Paper) {
    plan.scenario = scangen::paper_scaled();
    plan.ingest_days = 4;
    plan.flows1_start = bench::flows1_start();
    plan.flows1_end = bench::flows1_end();
    plan.flows2_start = bench::flows2_day();
    plan.flows2_end = bench::flows2_day() + 1;
  } else {
    plan.scenario = scangen::tiny();
    plan.ingest_days = 2;
    const std::int64_t first = plan.scenario.pop_2022.window_start_day;
    plan.flows1_start = first + 2;
    plan.flows1_end = first + 5;
    plan.flows2_start = first + 7;
    plan.flows2_end = first + 8;
  }
  plan.scenario.seed = seed;
  return plan;
}

detect::DetectorConfig detector_config(const scangen::Scenario& scenario) {
  return {.dispersion_threshold = scenario.config().def1_dispersion,
          .packet_volume_alpha = scenario.config().def2_alpha,
          .port_count_alpha = scenario.config().def3_alpha};
}

detect::StreamingConfig streaming_config(const scangen::Scenario& scenario) {
  detect::StreamingConfig config;
  config.base = detector_config(scenario);
  config.warmup_samples = 500;
  return config;
}

std::vector<telescope::DarknetEvent> synth_events(const scangen::Scenario& scenario,
                                                  std::uint64_t seed) {
  return scangen::synthesize_events(
      scenario.population_2022(),
      {.darknet_size = scenario.darknet().total_addresses(), .seed = seed});
}

flowsim::FlowDataset merit_flows(const scangen::Scenario& scenario,
                                 std::int64_t start, std::int64_t end,
                                 std::uint64_t seed) {
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = start;
  config.end_day = end;
  config.sampling_rate = 100;
  config.sampling_mode = flowsim::SamplingMode::Random;
  config.seed = seed;
  config.user = bench::merit_user_config();
  config.user.seed = seed ^ 0x9e3779b97f4a7c15ull;
  return flowsim::generate_flows(scenario.population_2022(), scenario.registry(),
                                 flowsim::PeeringPolicy::merit_like(), config);
}

std::vector<std::uint64_t> noise_series(const scangen::Scenario& scenario,
                                        const detect::DetectionResult& detection) {
  std::vector<std::uint64_t> noise;
  for (std::int64_t day = detection.first_day; day <= detection.last_day; ++day) {
    noise.push_back(scenario.noise_packets_on_day(day));
  }
  return noise;
}

std::uint64_t fingerprint(const std::vector<telescope::DarknetEvent>& events) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const telescope::DarknetEvent& e : events) {
    const std::uint64_t fields[] = {
        e.key.src.value(), e.key.dst_port, static_cast<std::uint64_t>(e.key.type),
        static_cast<std::uint64_t>(e.start.since_epoch().total_nanos()),
        static_cast<std::uint64_t>(e.end.since_epoch().total_nanos()), e.packets, e.unique_dests};
    h = fnv1a(fields, sizeof fields, h);
  }
  return h;
}

std::uint64_t fingerprint(const flowsim::FlowDataset& flows) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      const flowsim::RouterDay& cell = flows.at(router, day);
      // The sampled map iterates in no fixed order: fold it commutatively.
      std::uint64_t sampled = 0;
      for (const auto& [key, count] : cell.sampled) {
        sampled += flowsim::FlowKeyHash{}(key) * (count | 1);
      }
      const std::uint64_t fields[] = {cell.total_packets, cell.user_packets,
                                      cell.scanner_packets, cell.sampled.size(),
                                      sampled};
      h = fnv1a(fields, sizeof fields, h);
    }
  }
  return h;
}

}  // namespace orionbench
