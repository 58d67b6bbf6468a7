#include "orion/scangen/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "orion/netbase/parallel.hpp"

namespace orion::scangen {

namespace {

net::Prefix must_parse(const char* text) {
  const auto p = net::Prefix::parse(text);
  if (!p) throw std::logic_error(std::string("bad scenario prefix: ") + text);
  return *p;
}

std::vector<net::Prefix> default_darknet() {
  // /17 = 32,768 dark IPs = 128 /24s (ORION's ~475k scaled by ~14.5).
  return {must_parse("198.18.0.0/17")};
}

std::vector<net::Prefix> default_merit() {
  // 1785 /24s via binary decomposition (paper: 28,561 /24s, scaled 16x;
  // the 98:1 Merit:CU ratio is preserved).
  return {
      must_parse("20.0.0.0/14"),     // 1024 /24s
      must_parse("20.4.0.0/15"),     //  512
      must_parse("20.8.0.0/17"),     //  128
      must_parse("20.8.128.0/18"),   //   64
      must_parse("20.8.192.0/19"),   //   32
      must_parse("20.8.224.0/20"),   //   16
      must_parse("20.8.240.0/21"),   //    8
      must_parse("20.8.248.0/24"),   //    1
  };
}

std::vector<net::Prefix> default_cu() {
  // 18 /24s (paper: 291 /24s, scaled 16x).
  return {must_parse("21.0.0.0/20"), must_parse("21.0.16.0/23")};
}

std::vector<net::Prefix> default_honeypots() {
  // 64 scattered /28 sensors (1,024 addresses) across distinct /16s —
  // a GreyNoise-like distributed honeypot footprint.
  std::vector<net::Prefix> sensors;
  sensors.reserve(64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const net::Ipv4Address base =
        net::Ipv4Address::from_octets(22, static_cast<std::uint8_t>(i), 7, 0);
    sensors.emplace_back(base, 28);
  }
  return sensors;
}

PopulationConfig default_pop(int year) {
  PopulationConfig pop;
  pop.year = year;
  if (year == 2021) {
    pop.seed = 210101;
    pop.window_start_day = 0;
    pop.window_end_day = 365;
    pop.sweep_ports_mean = 300.0;
    pop.sweeper_sessions_per_year = 11.0;
    pop.port_sweeper_count = 90;
    pop.cloud_scanner_count = 640;
    pop.botnet_count = 560;
    pop.small_scanner_count = 160000;
    pop.small_medium_cov_hi = 0.06;
  } else {
    pop.seed = 220101;
    pop.window_start_day = 365;
    pop.window_end_day = 365 + 288;  // Jan 1 -> Oct 15, 2022
    pop.sweep_ports_mean = 3400.0;
    pop.sweeper_sessions_per_year = 11.0;
    pop.port_sweeper_count = 24;
    pop.cloud_scanner_count = 700;
    pop.botnet_count = 620;
    pop.small_scanner_count = 224000;
    pop.small_medium_share = 0.35;
    pop.small_medium_cov_hi = 0.092;
    // 2022 has more borderline mid-coverage scanning (Definition 2's
    // threshold dropped ~3x between the paper's years).
    pop.cloud_sessions_per_year = 16.0;
  }
  return pop;
}

}  // namespace

ScenarioConfig paper_scaled() {
  ScenarioConfig config;
  config.darknet = default_darknet();
  config.merit = default_merit();
  config.cu = default_cu();
  config.honeypots = default_honeypots();
  config.pop_2021 = default_pop(2021);
  config.pop_2022 = default_pop(2022);

  config.registry.seed = 77;
  for (const auto& list :
       {config.darknet, config.merit, config.cu, config.honeypots}) {
    for (const net::Prefix& p : list) config.registry.reserved.push_back(p);
  }
  return config;
}

ScenarioConfig tiny() {
  ScenarioConfig config = paper_scaled();
  config.darknet = {must_parse("198.18.0.0/22")};  // 1,024 dark IPs
  config.registry.cloud_count = 12;
  config.registry.isp_count = 60;
  config.registry.hosting_count = 20;
  config.registry.education_count = 12;
  config.registry.content_count = 8;
  config.registry.country_count = 40;

  for (PopulationConfig* pop : {&config.pop_2021, &config.pop_2022}) {
    pop->acked_org_count = 8;
    pop->acked_active_org_count = 6;
    pop->acked_ip_count = 40;
    pop->cloud_scanner_count = 40;
    pop->botnet_count = 30;
    pop->bruteforcer_count = 12;
    pop->port_sweeper_count = 4;
    pop->small_scanner_count = 400;
    pop->sweep_ports_mean = 60.0;
    // The window is only a fortnight; scale per-year rates up (x26) so each
    // scanner still runs several sessions, and raise sweep coverage so
    // sweep ports land on the 1,024-address test darknet.
    pop->acked_sweeps_per_year = 100.0;
    pop->cloud_sessions_per_year = 120.0;
    pop->botnet_sessions_per_year = 80.0;
    pop->bruteforce_sessions_per_year = 100.0;
    pop->sweeper_sessions_per_year = 130.0;
    pop->small_sessions_per_year = 50.0;
    pop->sweeper_coverage_lo = 2e-3;
    pop->sweeper_coverage_hi = 8e-3;
  }
  config.pop_2021.window_start_day = 0;
  config.pop_2021.window_end_day = 14;
  config.pop_2022.window_start_day = 14;
  config.pop_2022.window_end_day = 28;
  config.def2_alpha = 0.05;
  config.def3_alpha = 0.01;
  config.noise_packets_per_day = 2e4;
  return config;
}

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)),
      registry_(asdb::Registry::build(config_.registry)),
      origins_(KeyOrigins::select(registry_)),
      darknet_(config_.darknet),
      merit_(config_.merit),
      cu_(config_.cu),
      honeypots_(config_.honeypots) {
  // 2022 reuses only the 2021 research orgs' core fleets, which the
  // orgs-only build reproduces exactly, so the two years are built at
  // once; each draws from its own seeded RNG, as when built in turn.
  const std::vector<ResearchOrg> orgs_2021 =
      build_research_orgs(config_.pop_2021, registry_, origins_);
  const std::size_t n_threads = std::min<std::size_t>(2, net::available_threads());
  net::fork_join(n_threads, [&](std::size_t t) {
    if (t == 0) pop_2021_ = build_population(config_.pop_2021, registry_, origins_);
    if (t == 1 || n_threads == 1) {
      pop_2022_ = build_population(config_.pop_2022, registry_, origins_, &orgs_2021);
    }
  });
}

net::Duration Scenario::event_timeout() const {
  return telescope::derive_timeout(darknet_.total_addresses(),
                                   config_.timeout_rate_pps,
                                   config_.timeout_scan_duration);
}

std::uint64_t Scenario::noise_packets_on_day(std::int64_t day) const {
  // Deterministic day-keyed jitter (±20%) plus mild weekday structure.
  std::uint64_t state = config_.seed ^ static_cast<std::uint64_t>(day) * 0x9E37u;
  const double jitter =
      0.8 + 0.4 * (static_cast<double>(net::splitmix64(state) >> 11) * 0x1.0p-53);
  const double weekday_factor = net::is_weekend(day) ? 0.92 : 1.0;
  return static_cast<std::uint64_t>(config_.noise_packets_per_day * jitter *
                                    weekday_factor);
}

}  // namespace orion::scangen
