#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "orion/scangen/arrivals.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/population.hpp"
#include "orion/scangen/ports.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/scangen/target_sampler.hpp"

namespace orion::scangen {
namespace {

// ----------------------------------------------------------------- arrivals

TEST(Arrivals, ExpectedUniqueTargets) {
  EXPECT_DOUBLE_EQ(expected_unique_targets(1000, 0.1), 100.0);
  EXPECT_DOUBLE_EQ(expected_unique_targets(0, 0.5), 0.0);
}

TEST(Arrivals, FullCoverageIsExact) {
  net::Rng rng(1);
  EXPECT_EQ(sample_unique_targets(32768, 1.0, rng), 32768u);
  EXPECT_EQ(sample_unique_targets(32768, 1.5, rng), 32768u);
}

TEST(Arrivals, SampledTargetsMatchBinomialMean) {
  net::Rng rng(2);
  const int trials = 2000;
  double sum = 0;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(sample_unique_targets(32768, 0.25, rng));
  }
  EXPECT_NEAR(sum / trials, 8192.0, 50.0);
}

TEST(Arrivals, PacketsScaleWithRepeats) {
  EXPECT_EQ(session_packets_for_port(100, 1), 100u);
  EXPECT_EQ(session_packets_for_port(100, 3), 300u);
  EXPECT_EQ(session_packets_for_port(100, 0), 100u);  // clamped to 1
}

TEST(Arrivals, CouponCollectorFormula) {
  EXPECT_DOUBLE_EQ(expected_coupon_uniques(100, 0), 0.0);
  EXPECT_NEAR(expected_coupon_uniques(100, 100), 63.4, 0.1);
  EXPECT_NEAR(expected_coupon_uniques(1000, 10000), 1000.0 * (1 - std::exp(-10)),
              0.5);
  // Simulation agreement.
  net::Rng rng(3);
  const std::uint64_t n = 500, k = 800;
  double total = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < k; ++i) seen.insert(rng.bounded(n));
    total += static_cast<double>(seen.size());
  }
  EXPECT_NEAR(total / trials, expected_coupon_uniques(n, k), 3.0);
}

// ------------------------------------------------------------ target sampler

class TargetSampler : public testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>> {};

TEST_P(TargetSampler, DistinctInRangeAndComplete) {
  const auto [n, k] = GetParam();
  net::Rng rng(7);
  const auto sample = sample_distinct_offsets(n, k, rng);
  ASSERT_EQ(sample.size(), k);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), k);
  for (const std::uint64_t v : sample) EXPECT_LT(v, n);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TargetSampler,
    testing::Values(std::pair{100ull, 0ull}, std::pair{100ull, 1ull},
                    std::pair{100ull, 50ull}, std::pair{100ull, 100ull},
                    std::pair{65535ull, 700ull}, std::pair{32768ull, 32768ull},
                    std::pair{1000000ull, 100ull}));

TEST(TargetSamplerChecks, RejectsOversample) {
  net::Rng rng(1);
  EXPECT_THROW(sample_distinct_offsets(10, 11, rng), std::invalid_argument);
}

TEST(TargetSamplerChecks, FirstElementIsUniform) {
  // Floyd + shuffle should leave the first element uniform over [0, n).
  net::Rng rng(9);
  const std::uint64_t n = 10;
  std::array<int, 10> counts{};
  for (int t = 0; t < 20000; ++t) {
    ++counts[sample_distinct_offsets(n, 3, rng)[0]];
  }
  for (const int c : counts) EXPECT_NEAR(c, 2000, 300);
}

// -------------------------------------------------------------------- ports

TEST(Ports, ServiceCatalogTopEntries) {
  const auto& catalog = service_catalog(2022);
  // Redis then Telnet carry the largest weights (Fig 4 top ranks).
  EXPECT_EQ(catalog[0].port, 6379);
  EXPECT_EQ(catalog[1].port, 23);
  EXPECT_EQ(catalog[2].port, 22);
  // TCP/445 is confined to small scans.
  for (const WeightedPort& p : catalog) EXPECT_NE(p.port, 445);
}

TEST(Ports, YearCatalogsShareCore) {
  const auto& c21 = service_catalog(2021);
  const auto& c22 = service_catalog(2022);
  std::set<std::uint16_t> p21, p22;
  for (const auto& p : c21) p21.insert(p.port);
  for (const auto& p : c22) p22.insert(p.port);
  std::vector<std::uint16_t> shared;
  std::set_intersection(p21.begin(), p21.end(), p22.begin(), p22.end(),
                        std::back_inserter(shared));
  EXPECT_EQ(shared.size(), 22u);  // 20 TCP/UDP ports + ICMP + one more shared
  EXPECT_TRUE(p21.contains(8291));
  EXPECT_FALSE(p22.contains(8291));
  EXPECT_TRUE(p22.contains(10250));
}

TEST(Ports, SmallScanCatalogHas445) {
  const auto& catalog = small_scan_catalog();
  const auto it = std::find_if(catalog.begin(), catalog.end(),
                               [](const WeightedPort& p) { return p.port == 445; });
  ASSERT_NE(it, catalog.end());
  // ... and it is the heaviest entry.
  for (const WeightedPort& p : catalog) EXPECT_LE(p.weight, it->weight);
}

TEST(Ports, PickPortFollowsWeights) {
  const std::vector<WeightedPort> catalog = {
      {1, pkt::TrafficType::TcpSyn, 9.0}, {2, pkt::TrafficType::TcpSyn, 1.0}};
  net::Rng rng(4);
  int first = 0;
  for (int i = 0; i < 10000; ++i) first += pick_port(catalog, rng).port == 1;
  EXPECT_NEAR(first, 9000, 200);
}

TEST(Ports, PickDistinctPortsAreDistinct) {
  net::Rng rng(5);
  const auto picks = pick_distinct_ports(service_catalog(2021), 5, rng);
  ASSERT_EQ(picks.size(), 5u);
  std::set<std::uint16_t> unique;
  for (const PortSpec& p : picks) unique.insert(p.port);
  EXPECT_EQ(unique.size(), 5u);
  // Requesting more than the catalog returns the whole catalog.
  const auto all = pick_distinct_ports(service_catalog(2021), 10000, rng);
  EXPECT_EQ(all.size(), service_catalog(2021).size());
}

// --------------------------------------------------------------- population

class PopulationTest : public testing::Test {
 protected:
  static const Scenario& scenario() {
    static const Scenario s{tiny()};
    return s;
  }
};

TEST_F(PopulationTest, CategoryCountsMatchConfig) {
  const Population& pop = scenario().population_2021();
  const PopulationConfig& config = pop.config;
  EXPECT_EQ(pop.count(Category::AckedResearch), config.acked_ip_count);
  EXPECT_EQ(pop.count(Category::CloudScanner), config.cloud_scanner_count);
  EXPECT_EQ(pop.count(Category::Botnet), config.botnet_count);
  EXPECT_EQ(pop.count(Category::Bruteforcer), config.bruteforcer_count);
  EXPECT_EQ(pop.count(Category::PortSweeper), config.port_sweeper_count);
  EXPECT_EQ(pop.count(Category::SmallScanner), config.small_scanner_count);
  EXPECT_EQ(pop.orgs.size(), config.acked_org_count);
}

TEST_F(PopulationTest, SourcesAreUniqueAndOutsideMonitoredSpace) {
  const Population& pop = scenario().population_2021();
  std::unordered_set<net::Ipv4Address> sources;
  for (const ScannerProfile& s : pop.scanners) {
    EXPECT_TRUE(sources.insert(s.source).second) << s.source.to_string();
    EXPECT_FALSE(scenario().darknet().contains(s.source));
    EXPECT_FALSE(scenario().merit().contains(s.source));
    EXPECT_FALSE(scenario().cu().contains(s.source));
  }
}

TEST_F(PopulationTest, SessionsAreSortedAndInsideWindow) {
  const Population& pop = scenario().population_2021();
  const auto window_start =
      net::SimTime::at(net::Duration::days(pop.config.window_start_day));
  const auto window_end =
      net::SimTime::at(net::Duration::days(pop.config.window_end_day));
  for (const ScannerProfile& s : pop.scanners) {
    for (std::size_t i = 0; i + 1 < s.sessions.size(); ++i) {
      EXPECT_LE(s.sessions[i].start, s.sessions[i + 1].start);
    }
    for (const SessionSpec& session : s.sessions) {
      EXPECT_GE(session.start, window_start);
      EXPECT_LT(session.start, window_end);
      EXPECT_GT(session.coverage, 0.0);
      EXPECT_LE(session.coverage, 1.0);
      if (s.category == Category::PortSweeper) {
        EXPECT_GT(session.sweep_port_count, 0u);
        EXPECT_TRUE(session.ports.empty());
      } else {
        EXPECT_FALSE(session.ports.empty());
        EXPECT_EQ(session.sweep_port_count, 0u);
      }
    }
  }
}

TEST_F(PopulationTest, ResearchOrgsOwnTheirIps) {
  const Population& pop = scenario().population_2021();
  std::size_t org_ips = 0;
  for (const ResearchOrg& org : pop.orgs) {
    EXPECT_FALSE(org.ips.empty());
    EXPECT_FALSE(org.keyword.empty());
    org_ips += org.ips.size();
  }
  // Orgs own all the dedicated research IPs plus any research-affiliated
  // port sweepers.
  EXPECT_GE(org_ips, pop.config.acked_ip_count);
  EXPECT_LE(org_ips, pop.config.acked_ip_count + pop.config.port_sweeper_count);
  // Org names appear exactly on research scanners and affiliated sweepers.
  for (const ScannerProfile& s : pop.scanners) {
    if (s.category == Category::AckedResearch) {
      EXPECT_FALSE(s.org.empty());
    } else if (s.category != Category::PortSweeper) {
      EXPECT_TRUE(s.org.empty());
    }
  }
}

TEST_F(PopulationTest, BuildIsDeterministic) {
  const ScenarioConfig config = tiny();
  const Scenario a(config), b(config);
  ASSERT_EQ(a.population_2021().scanners.size(),
            b.population_2021().scanners.size());
  for (std::size_t i = 0; i < a.population_2021().scanners.size(); ++i) {
    const ScannerProfile& sa = a.population_2021().scanners[i];
    const ScannerProfile& sb = b.population_2021().scanners[i];
    EXPECT_EQ(sa.source, sb.source);
    EXPECT_EQ(sa.sessions.size(), sb.sessions.size());
  }
}

TEST_F(PopulationTest, KeyOriginsExist) {
  const KeyOrigins& k = scenario().origins();
  ASSERT_NE(k.mega_cloud_us, nullptr);
  EXPECT_EQ(k.mega_cloud_us->country, "US");
  EXPECT_EQ(k.mega_cloud_us->type, asdb::AsType::Cloud);
  ASSERT_NE(k.isp_cn_1, nullptr);
  EXPECT_EQ(k.isp_cn_1->country, "CN");
}

// -------------------------------------------------------------- event synth

TEST(EventSynth, FullSweepCoversDarknet) {
  ScannerProfile scanner;
  scanner.source = *net::Ipv4Address::parse("203.0.113.5");
  scanner.tool = pkt::ScanTool::ZMap;
  scanner.rng_stream = 9;
  SessionSpec session;
  session.start = net::SimTime::at(net::Duration::hours(5));
  session.duration = net::Duration::hours(3);
  session.coverage = 1.0;
  session.ports = {{6379, pkt::TrafficType::TcpSyn}};
  scanner.sessions.push_back(session);

  EventSynthConfig config{.darknet_size = 4096, .seed = 1};
  std::vector<telescope::DarknetEvent> events;
  synthesize_scanner_events(scanner, config, events);
  ASSERT_EQ(events.size(), 1u);
  const telescope::DarknetEvent& e = events[0];
  EXPECT_EQ(e.unique_dests, 4096u);
  EXPECT_EQ(e.packets, 4096u);
  EXPECT_DOUBLE_EQ(e.dispersion(4096), 1.0);
  EXPECT_EQ(e.key.src, scanner.source);
  EXPECT_EQ(e.key.dst_port, 6379);
  EXPECT_GE(e.start, session.start);
  EXPECT_LE(e.end, session.end());
  EXPECT_LE(e.start, e.end);
  EXPECT_EQ(e.packets_by_tool[telescope::tool_index(pkt::ScanTool::ZMap)],
            e.packets);
  EXPECT_EQ(e.dominant_tool(), pkt::ScanTool::ZMap);
}

TEST(EventSynth, RepeatsMultiplyPackets) {
  ScannerProfile scanner;
  scanner.source = *net::Ipv4Address::parse("203.0.113.6");
  scanner.rng_stream = 2;
  SessionSpec session;
  session.start = net::SimTime::epoch();
  session.duration = net::Duration::hours(1);
  session.coverage = 1.0;
  session.repeats = 3;
  session.ports = {{23, pkt::TrafficType::TcpSyn}};
  scanner.sessions.push_back(session);
  std::vector<telescope::DarknetEvent> events;
  synthesize_scanner_events(scanner, {.darknet_size = 1000, .seed = 1}, events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].packets, 3000u);
  EXPECT_EQ(events[0].unique_dests, 1000u);
}

TEST(EventSynth, SweepSessionsEmitPerPortEvents) {
  ScannerProfile scanner;
  scanner.source = *net::Ipv4Address::parse("203.0.113.7");
  scanner.category = Category::PortSweeper;
  scanner.rng_stream = 3;
  SessionSpec session;
  session.start = net::SimTime::epoch();
  session.duration = net::Duration::hours(12);
  session.coverage = 0.01;  // ~10 targets in a 1000-IP darknet per port
  session.sweep_port_count = 40;
  scanner.sessions.push_back(session);
  std::vector<telescope::DarknetEvent> events;
  synthesize_scanner_events(scanner, {.darknet_size = 1000, .seed = 2}, events);
  EXPECT_GT(events.size(), 25u);
  EXPECT_LE(events.size(), 40u);
  std::set<std::uint16_t> ports;
  for (const auto& e : events) {
    ports.insert(e.key.dst_port);
    EXPECT_GT(e.key.dst_port, 0u);
    EXPECT_EQ(e.key.type, pkt::TrafficType::TcpSyn);
  }
  EXPECT_EQ(ports.size(), events.size());  // distinct ports
}

TEST(EventSynth, MeanUniqueDestsTracksCoverage) {
  const double coverage = 0.3;
  const std::uint64_t darknet = 2048;
  double sum = 0;
  int count = 0;
  for (std::uint64_t stream = 0; stream < 300; ++stream) {
    ScannerProfile scanner;
    scanner.source = net::Ipv4Address(0x0B000000u + static_cast<std::uint32_t>(stream));
    scanner.rng_stream = stream;
    SessionSpec session;
    session.start = net::SimTime::epoch();
    session.duration = net::Duration::hours(2);
    session.coverage = coverage;
    session.ports = {{80, pkt::TrafficType::TcpSyn}};
    scanner.sessions.push_back(session);
    std::vector<telescope::DarknetEvent> events;
    synthesize_scanner_events(scanner, {.darknet_size = darknet, .seed = 5}, events);
    for (const auto& e : events) {
      sum += static_cast<double>(e.unique_dests);
      ++count;
    }
  }
  EXPECT_EQ(count, 300);
  EXPECT_NEAR(sum / count, coverage * static_cast<double>(darknet), 8.0);
}

TEST(EventSynth, DatasetIsSortedByStart) {
  const Scenario scenario{tiny()};
  const auto events = synthesize_events(
      scenario.population_2021(),
      {.darknet_size = scenario.darknet().total_addresses(), .seed = 3});
  EXPECT_GT(events.size(), 100u);
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_LE(events[i].start, events[i + 1].start);
  }
}

// --------------------------------------------------------------- packet gen

TEST(PacketGen, StreamIsSortedAndInWindow) {
  const Scenario scenario{tiny()};
  const net::SimTime t0 = net::SimTime::at(net::Duration::days(2));
  const net::SimTime t1 = net::SimTime::at(net::Duration::days(3));
  PacketStreamGenerator gen(scenario.population_2021().scanners,
                            scenario.darknet(), t0, t1, {.seed = 4});
  net::SimTime last = t0;
  std::uint64_t count = 0;
  while (auto p = gen.next()) {
    EXPECT_GE(p->timestamp, last);
    EXPECT_GE(p->timestamp, t0);
    EXPECT_LT(p->timestamp, t1 + net::Duration::seconds(1));
    EXPECT_TRUE(scenario.darknet().contains(p->tuple.dst));
    last = p->timestamp;
    ++count;
  }
  EXPECT_GT(count, 0u);
  EXPECT_EQ(count, gen.packets_emitted());
}

TEST(PacketGen, ExactTargetsAreDistinctWithinSession) {
  ScannerProfile scanner;
  scanner.source = *net::Ipv4Address::parse("203.0.113.8");
  scanner.tool = pkt::ScanTool::Masscan;
  scanner.rng_stream = 4;
  SessionSpec session;
  session.start = net::SimTime::epoch();
  session.duration = net::Duration::hours(1);
  session.coverage = 0.5;
  session.ports = {{443, pkt::TrafficType::TcpSyn}};
  scanner.sessions.push_back(session);

  net::PrefixSet space({*net::Prefix::parse("198.18.0.0/24")});
  PacketStreamGenerator gen({scanner}, space, net::SimTime::epoch(),
                            session.end(), {.seed = 6, .exact_targets = true});
  std::unordered_set<net::Ipv4Address> dests;
  std::uint64_t packets = 0;
  while (auto p = gen.next()) {
    dests.insert(p->tuple.dst);
    EXPECT_EQ(pkt::fingerprint_of(*p), pkt::ScanTool::Masscan);
    ++packets;
  }
  EXPECT_EQ(dests.size(), packets);  // repeats == 1 -> all distinct
  EXPECT_NEAR(static_cast<double>(packets), 128.0, 40.0);
}

TEST(PacketGen, WindowedCountMatchesSessionShare) {
  // A 2-day session observed through a 1-day window delivers about half.
  ScannerProfile scanner;
  scanner.source = *net::Ipv4Address::parse("203.0.113.9");
  scanner.rng_stream = 5;
  SessionSpec session;
  session.start = net::SimTime::epoch();
  session.duration = net::Duration::days(2);
  session.coverage = 1.0;
  session.ports = {{22, pkt::TrafficType::TcpSyn}};
  scanner.sessions.push_back(session);

  net::PrefixSet space({*net::Prefix::parse("198.18.0.0/22")});  // 1024
  PacketStreamGenerator gen({scanner}, space, net::SimTime::epoch(),
                            net::SimTime::at(net::Duration::days(1)),
                            {.seed = 7, .exact_targets = false});
  std::uint64_t count = 0;
  while (gen.next()) ++count;
  EXPECT_NEAR(static_cast<double>(count), 512.0, 60.0);
}

}  // namespace
}  // namespace orion::scangen

// NOTE: appended suite — DHCP churn and noise events.
#include "orion/scangen/noise.hpp"

namespace orion::scangen {
namespace {

TEST(DhcpChurn, SplitsSessionsAcrossSiblingIps) {
  // High churn: most multi-session ISP scanners split.
  ScenarioConfig config = tiny();
  config.pop_2021.dhcp_churn_per_year = 20.0;  // ~certain within 14 days
  config.pop_2021.botnet_count = 40;
  const Scenario scenario(config);
  const Population& pop = scenario.population_2021();

  // With churn, the scanner count exceeds the configured category sizes.
  const std::size_t configured =
      config.pop_2021.acked_ip_count + config.pop_2021.cloud_scanner_count +
      config.pop_2021.botnet_count + config.pop_2021.bruteforcer_count +
      config.pop_2021.port_sweeper_count + config.pop_2021.small_scanner_count;
  EXPECT_GE(pop.scanners.size(), configured + 8);

  // Siblings: every scanner still has time-sorted sessions, and churned
  // pairs never overlap in time (the sibling starts after the original's
  // last session).
  for (const ScannerProfile& s : pop.scanners) {
    for (std::size_t i = 0; i + 1 < s.sessions.size(); ++i) {
      EXPECT_LE(s.sessions[i].start, s.sessions[i + 1].start);
    }
  }
}

TEST(DhcpChurn, ZeroChurnKeepsCounts) {
  ScenarioConfig config = tiny();
  config.pop_2021.dhcp_churn_per_year = 0.0;
  const Scenario scenario(config);
  const std::size_t configured =
      config.pop_2021.acked_ip_count + config.pop_2021.cloud_scanner_count +
      config.pop_2021.botnet_count + config.pop_2021.bruteforcer_count +
      config.pop_2021.port_sweeper_count + config.pop_2021.small_scanner_count;
  EXPECT_EQ(scenario.population_2021().scanners.size(), configured);
}

TEST(NoiseEvents, ShapesMatchTheirKind) {
  NoiseEventsConfig config;
  config.spoofed_bursts = 3;
  config.sources_per_burst = 50;
  config.misconfigured_hosts = 10;
  const auto events = synthesize_noise_events(config);
  ASSERT_EQ(events.size(), 3 * 50 + 10u);
  std::size_t singles = 0, chatty = 0;
  for (const auto& e : events) {
    if (e.packets == 1) {
      ++singles;
      EXPECT_EQ(e.unique_dests, 1u);
    } else {
      ++chatty;
      EXPECT_GE(e.packets, 100u);
      EXPECT_LE(e.unique_dests, 2u);
      EXPECT_GE(e.end - e.start, net::Duration::hours(12));
    }
  }
  EXPECT_EQ(singles, 150u);
  EXPECT_EQ(chatty, 10u);
}

TEST(NoiseEvents, Deterministic) {
  NoiseEventsConfig config;
  const auto a = synthesize_noise_events(config);
  const auto b = synthesize_noise_events(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key.src, b[i].key.src);
    EXPECT_EQ(a[i].packets, b[i].packets);
  }
}

}  // namespace
}  // namespace orion::scangen

// NOTE: appended suite — paper-scaled scenario structure (slower: builds
// the full world once).
namespace orion::scangen {
namespace {

TEST(PaperScaled, AddressPlanMatchesDesign) {
  const ScenarioConfig config = paper_scaled();
  const net::PrefixSet darknet(config.darknet);
  const net::PrefixSet merit(config.merit);
  const net::PrefixSet cu(config.cu);
  const net::PrefixSet honeypots(config.honeypots);

  EXPECT_EQ(darknet.total_addresses(), 32768u);       // /17
  EXPECT_EQ(merit.total_slash24s(), 1785u);           // paper 28,561 / 16
  EXPECT_EQ(cu.total_slash24s(), 18u);                // paper 291 / 16
  // The paper's 98:1 Merit:CU footprint ratio is preserved.
  EXPECT_NEAR(static_cast<double>(merit.total_slash24s()) /
                  static_cast<double>(cu.total_slash24s()),
              28561.0 / 291.0, 3.0);
  EXPECT_EQ(honeypots.total_addresses(), 64u * 16u);  // 64 x /28

  // Monitored spaces are mutually disjoint and reserved from the registry.
  for (const auto* a : {&config.darknet, &config.merit, &config.cu,
                        &config.honeypots}) {
    for (const net::Prefix& p : *a) {
      EXPECT_NE(std::find(config.registry.reserved.begin(),
                          config.registry.reserved.end(), p),
                config.registry.reserved.end())
          << p.to_string();
    }
  }
}

TEST(PaperScaled, WindowsMatchPaperCalendar) {
  const ScenarioConfig config = paper_scaled();
  EXPECT_EQ(config.pop_2021.window_start_day, net::day_index_of(2021, 1, 1));
  EXPECT_EQ(config.pop_2021.window_end_day, net::day_index_of(2022, 1, 1));
  EXPECT_EQ(config.pop_2022.window_start_day, net::day_index_of(2022, 1, 1));
  EXPECT_EQ(config.pop_2022.window_end_day, net::day_index_of(2022, 10, 16));
}

TEST(PaperScaled, DerivedTimeoutScalesFromPaperFormula) {
  const Scenario scenario{paper_scaled()};
  // For the /17 darknet the footnote formula gives a much longer timeout
  // than ORION's ~11 minutes (rarer hits per dark IP).
  EXPECT_GT(scenario.event_timeout(), net::Duration::hours(1));
  EXPECT_LT(scenario.event_timeout(), net::Duration::hours(24));
}

}  // namespace
}  // namespace orion::scangen

// NOTE: appended suite — the set-up contract: the rewritten samplers
// against the forms they replaced, thread-count invariance of event
// synthesis and packet generation, and golden pins on the paper-scaled
// inputs.
#include <bit>
#include <limits>
#include <queue>

#include "orion/netbase/shard.hpp"

#include "event_synth_core.hpp"
#include "packet_gen_core.hpp"

namespace orion::scangen {
namespace {

/// pick_distinct_ports as first written: copy the catalog, draw over the
/// remainder and erase each pick. The reference for the marking form.
std::vector<PortSpec> reference_pick_distinct_ports(
    const std::vector<WeightedPort>& catalog, std::size_t count, net::Rng& rng) {
  std::vector<PortSpec> out;
  if (count >= catalog.size()) {
    for (const WeightedPort& p : catalog) out.push_back({p.port, p.type});
    return out;
  }
  std::vector<WeightedPort> pool = catalog;
  for (std::size_t i = 0; i < count; ++i) {
    double total = 0;
    for (const WeightedPort& p : pool) total += p.weight;
    double u = rng.uniform() * total;
    std::size_t chosen = pool.size() - 1;
    for (std::size_t j = 0; j < pool.size(); ++j) {
      u -= pool[j].weight;
      if (u <= 0) {
        chosen = j;
        break;
      }
    }
    out.push_back({pool[chosen].port, pool[chosen].type});
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(chosen));
  }
  return out;
}

/// sample_distinct_offsets as first written, with Floyd's membership in a
/// std::unordered_set. The reference for the bitset / flat-set form.
std::vector<std::uint64_t> reference_sample_distinct_offsets(std::uint64_t n,
                                                             std::uint64_t k,
                                                             net::Rng& rng) {
  std::vector<std::uint64_t> out;
  if (k == 0) return out;
  if (k * 4 >= n) {
    std::vector<std::uint64_t> pool(n);
    for (std::uint64_t i = 0; i < n; ++i) pool[i] = i;
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::uint64_t j = i + rng.bounded(n - i);
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
    return out;
  }
  std::unordered_set<std::uint64_t> chosen;
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t candidate = rng.bounded(j + 1);
    if (chosen.insert(candidate).second) {
      out.push_back(candidate);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  for (std::uint64_t i = out.size() - 1; i > 0; --i) {
    std::swap(out[i], out[rng.bounded(i + 1)]);
  }
  return out;
}

TEST(SamplerOracle, PickDistinctPortsMatchesPoolErase) {
  net::Rng gen(11);
  for (int trial = 0; trial < 300; ++trial) {
    // Random catalogs, duplicates and zero weights included.
    std::vector<WeightedPort> catalog(gen.bounded(30));
    for (WeightedPort& p : catalog) {
      p.port = static_cast<std::uint16_t>(gen.bounded(40));
      p.type = gen.chance(0.2) ? pkt::TrafficType::Udp : pkt::TrafficType::TcpSyn;
      p.weight = gen.chance(0.1) ? 0.0 : 0.01 + gen.uniform() * 20.0;
    }
    for (std::size_t count = 0; count <= catalog.size() + 1; ++count) {
      const std::uint64_t seed = gen.bounded(std::numeric_limits<std::uint64_t>::max());
      net::Rng a(seed), b(seed);
      EXPECT_EQ(pick_distinct_ports(catalog, count, a),
                reference_pick_distinct_ports(catalog, count, b))
          << "trial " << trial << " count " << count;
      EXPECT_EQ(a.bounded(1ull << 40), b.bounded(1ull << 40));
    }
  }
  // The shipped catalogs, at the counts the population builder asks for.
  for (const auto* catalog : {&service_catalog(2021), &service_catalog(2022),
                              &botnet_catalog(), &bruteforce_catalog(),
                              &small_scan_catalog()}) {
    for (std::size_t count = 0; count <= catalog->size() + 1; ++count) {
      net::Rng a(count), b(count);
      EXPECT_EQ(pick_distinct_ports(*catalog, count, a),
                reference_pick_distinct_ports(*catalog, count, b));
      EXPECT_EQ(a.bounded(1ull << 40), b.bounded(1ull << 40));
    }
  }
}

TEST(SamplerOracle, SampleDistinctOffsetsMatchesUnorderedSetFloyd) {
  struct Case {
    std::uint64_t n;
    std::uint64_t k;
  };
  // Sparse draws on both sides of the bitset / flat-set switch (port
  // sweeps: n = 65535), dense draws, and the edges.
  const std::vector<Case> cases = {
      {1, 0},       {1, 1},         {2, 1},        {10, 2},        {10, 3},
      {100, 24},    {100, 25},      {100, 100},    {1000, 10},     {65535, 1},
      {65535, 50},  {65535, 127},   {65535, 128},  {65535, 700},   {65535, 3400},
      {65535, 16383}, {65535, 16384}, {65535, 65535}, {32768, 300}, {1u << 20, 100},
      {1ull << 32, 1000}, {std::numeric_limits<std::uint64_t>::max(), 64}};
  for (const Case& c : cases) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      net::Rng a(seed * 7 + c.k), b(seed * 7 + c.k);
      EXPECT_EQ(sample_distinct_offsets(c.n, c.k, a),
                reference_sample_distinct_offsets(c.n, c.k, b))
          << "n " << c.n << " k " << c.k;
      EXPECT_EQ(a.bounded(1ull << 40), b.bounded(1ull << 40));
    }
  }
}

/// synthesize_events as first written: one serial pass in scanner order,
/// then std::sort of the events themselves by start.
std::vector<telescope::DarknetEvent> reference_synthesize_events(
    const Population& population, const EventSynthConfig& config) {
  std::vector<telescope::DarknetEvent> out;
  for (const ScannerProfile& scanner : population.scanners) {
    synthesize_scanner_events(scanner, config, out);
  }
  std::sort(out.begin(), out.end(),
            [](const telescope::DarknetEvent& a, const telescope::DarknetEvent& b) {
              return a.start < b.start;
            });
  return out;
}

/// Index of the first event where `a` and `b` differ (the shorter size if
/// one is a prefix of the other), or npos when they are equal; a failure
/// names one position instead of printing a million events.
std::size_t first_difference(const std::vector<telescope::DarknetEvent>& a,
                             const std::vector<telescope::DarknetEvent>& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (ia == a.end() && ib == b.end()) return std::string::npos;
  return static_cast<std::size_t>(ia - a.begin());
}

/// A few heavy port sweepers among many small scanners whose events share
/// a handful of start instants: the sweepers each outweigh a whole range
/// at 8 threads, and the ties make the sort's tie order visible.
Population sweepers_and_ties() {
  Population pop;
  net::Rng rng(5);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    ScannerProfile s;
    s.source = net::Ipv4Address(0x0B000000u + i);
    s.rng_stream = i + 1;
    s.tool = i % 3 == 0 ? pkt::ScanTool::ZMap : pkt::ScanTool::Other;
    SessionSpec session;
    if (i % 1000 == 17) {
      s.category = Category::PortSweeper;
      session.start = net::SimTime::at(net::Duration::hours(i % 7));
      session.duration = net::Duration::hours(12);
      session.coverage = 0.02;
      session.sweep_port_count = 20000;
    } else {
      // A one-nanosecond session pins every event to its session start.
      session.start = net::SimTime::at(net::Duration::hours(rng.bounded(4)));
      session.duration = net::Duration::nanos(1);
      session.coverage = 0.01;
      session.ports = {{static_cast<std::uint16_t>(1 + rng.bounded(3)),
                        pkt::TrafficType::TcpSyn}};
      if (rng.chance(0.3)) session.ports.push_back({445, pkt::TrafficType::TcpSyn});
    }
    s.sessions.push_back(session);
    pop.scanners.push_back(std::move(s));
  }
  return pop;
}

TEST(EventSynth, ThreadCountDoesNotChangeTheResult) {
  const Scenario scenario{tiny()};
  const EventSynthConfig tiny_config{
      .darknet_size = scenario.darknet().total_addresses(), .seed = 3};
  const Population ties = sweepers_and_ties();
  const EventSynthConfig ties_config{.darknet_size = 4096, .seed = 9};

  const std::vector<std::pair<const Population*, EventSynthConfig>> inputs = {
      {&scenario.population_2021(), tiny_config},
      {&scenario.population_2022(), tiny_config},
      {&ties, ties_config}};
  for (const auto& [population, config] : inputs) {
    const auto reference = reference_synthesize_events(*population, config);
    ASSERT_GT(reference.size(), 100u);
    for (const std::size_t n_threads : {1u, 2u, 3u, 8u}) {
      EXPECT_EQ(first_difference(
                    detail::synthesize_events(*population, config, n_threads), reference),
                std::string::npos)
          << n_threads << " threads";
    }
    EXPECT_EQ(first_difference(synthesize_events(*population, config), reference),
              std::string::npos);
  }

  // The tie input does what it is for: thousands of events share a start
  // with a neighbour, and one sweeper's events exceed an eighth of the
  // total.
  const auto events = reference_synthesize_events(ties, ties_config);
  std::size_t tied = 0;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    tied += events[i].start == events[i + 1].start;
  }
  EXPECT_GT(tied, 2000u);
  std::vector<telescope::DarknetEvent> one_sweeper;
  synthesize_scanner_events(ties.scanners[17], ties_config, one_sweeper);
  EXPECT_GT(one_sweeper.size(), events.size() / 8);
}

TEST(Population, OrgsOnlyBuildMatchesTheCoreOrgs) {
  for (const ScenarioConfig& config : {tiny(), paper_scaled()}) {
    const asdb::Registry registry = asdb::Registry::build(config.registry);
    const KeyOrigins origins = KeyOrigins::select(registry);
    const Population full = build_population(config.pop_2021, registry, origins);
    const std::vector<ResearchOrg> core =
        build_research_orgs(config.pop_2021, registry, origins);
    ASSERT_EQ(core.size(), full.orgs.size());
    for (std::size_t i = 0; i < core.size(); ++i) {
      const ResearchOrg& a = core[i];
      const ResearchOrg& b = full.orgs[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.domain, b.domain);
      EXPECT_EQ(a.keyword, b.keyword);
      EXPECT_EQ(a.asn, b.asn);
      EXPECT_EQ(a.active, b.active);
      EXPECT_EQ(a.core_ip_count, b.core_ip_count);
      ASSERT_EQ(a.ips.size(), a.core_ip_count);
      ASSERT_GE(b.ips.size(), b.core_ip_count);
      EXPECT_TRUE(std::equal(a.ips.begin(), a.ips.end(), b.ips.begin()));
    }
    // What the next year reuses is the same from either list.
    const Population from_core =
        build_population(config.pop_2022, registry, origins, &core);
    const Population from_full =
        build_population(config.pop_2022, registry, origins, &full.orgs);
    ASSERT_EQ(from_core.scanners.size(), from_full.scanners.size());
    for (std::size_t i = 0; i < from_core.scanners.size(); ++i) {
      EXPECT_EQ(from_core.scanners[i].source, from_full.scanners[i].source);
    }
  }
}

// ------------------------------------------------------------ golden pins

/// FNV-1a over every field of the generated inputs.
class Fnv {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void add(T value) {
    if constexpr (std::is_floating_point_v<T>) {
      add(std::bit_cast<std::uint64_t>(static_cast<double>(value)));
    } else {
      auto v = static_cast<std::uint64_t>(value);
      for (int i = 0; i < 8; ++i, v >>= 8) {
        hash_ ^= v & 0xFF;
        hash_ *= 1099511628211ull;
      }
    }
  }
  void add(net::Ipv4Address a) { add(a.value()); }
  void add(net::SimTime t) { add(t.since_epoch().total_nanos()); }
  void add(net::Duration d) { add(d.total_nanos()); }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) add(c);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t population_hash(const Population& pop) {
  Fnv h;
  h.add(pop.scanners.size());
  for (const ScannerProfile& s : pop.scanners) {
    h.add(s.source);
    h.add(s.category);
    h.add(s.tool);
    h.add(s.org);
    h.add(s.rng_stream);
    h.add(s.sessions.size());
    for (const SessionSpec& session : s.sessions) {
      h.add(session.start);
      h.add(session.duration);
      h.add(session.coverage);
      h.add(session.repeats);
      h.add(session.sweep_port_count);
      h.add(session.ports.size());
      for (const PortSpec& p : session.ports) {
        h.add(p.port);
        h.add(p.type);
      }
    }
  }
  h.add(pop.orgs.size());
  for (const ResearchOrg& org : pop.orgs) {
    h.add(org.name);
    h.add(org.domain);
    h.add(org.keyword);
    h.add(org.asn);
    h.add(org.core_ip_count);
    h.add(org.active);
    h.add(org.ips.size());
    for (const net::Ipv4Address ip : org.ips) h.add(ip);
  }
  return h.value();
}

std::uint64_t events_hash(const std::vector<telescope::DarknetEvent>& events) {
  Fnv h;
  h.add(events.size());
  for (const telescope::DarknetEvent& e : events) {
    h.add(e.key.src);
    h.add(e.key.dst_port);
    h.add(e.key.type);
    h.add(e.start);
    h.add(e.end);
    h.add(e.packets);
    h.add(e.unique_dests);
    for (const std::uint64_t p : e.packets_by_tool) h.add(p);
  }
  return h.value();
}

// The paper-scaled inputs as `perfbench/run.py --seed s` builds them: the
// scenario at seed s, the Darknet-2 events at seed s + 1. The constants
// were computed by the serial set-up (one population after the other,
// one synthesis pass, std::sort of the events); any change to them is a
// scenario-contract change, not a refactor.
TEST(ScenarioGolden, PaperScaledInputsArePinned) {
  struct Pin {
    std::uint64_t seed;
    std::uint64_t pop_2021;
    std::uint64_t pop_2022;
    std::size_t events;
    std::uint64_t events_hash;
  };
  const Pin pins[] = {
      {1, 0x4a186014eba23b4eull, 0x27c3728acef6a695ull, 1054619, 0xbe543f97504f6d14ull},
      {2, 0x4a186014eba23b4eull, 0x27c3728acef6a695ull, 1054782, 0x5c27e1a6806d166dull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "seed " << pin.seed);
    ScenarioConfig config = paper_scaled();
    config.seed = pin.seed;
    const Scenario scenario(config);
    const auto events = synthesize_events(
        scenario.population_2022(),
        {.darknet_size = scenario.darknet().total_addresses(), .seed = pin.seed + 1});
    EXPECT_EQ(population_hash(scenario.population_2021()), pin.pop_2021);
    EXPECT_EQ(population_hash(scenario.population_2022()), pin.pop_2022);
    EXPECT_EQ(events.size(), pin.events);
    EXPECT_EQ(events_hash(events), pin.events_hash);
  }
}

// ------------------------------------------------------ parallel packet gen

/// PacketStreamGenerator as first written: every sub-stream in one heap
/// keyed by (arrival ns, stream index), popped once per packet.
class ReferencePacketGenerator {
 public:
  ReferencePacketGenerator(const std::vector<ScannerProfile>& scanners,
                           net::PrefixSet space, net::SimTime t0, net::SimTime t1,
                           const PacketGenConfig& config)
      : space_(std::move(space)) {
    for (const ScannerProfile& scanner : scanners) {
      if (config.shard_count > 1 &&
          net::shard_of(scanner.source, config.shard_count) != config.shard) {
        continue;
      }
      net::Rng scanner_rng = net::Rng(config.seed).fork(scanner.rng_stream);
      std::uint64_t scanner_streams = 0;
      for (const SessionSpec& session : scanner.sessions) {
        if (session.end() <= t0 || session.start >= t1) continue;
        add_streams(scanner, session, t0, t1, config, scanner_rng, scanner_streams);
      }
    }
    for (std::size_t i = 0; i < streams_.size(); ++i) push(i);
  }

  std::vector<pkt::Packet> drain() {
    std::vector<pkt::Packet> out;
    while (!heap_.empty()) {
      const auto [nanos, index] = heap_.top();
      heap_.pop();
      Stream& s = streams_[index];
      const std::uint64_t offset = s.targets.empty()
                                       ? s.rng.bounded(space_.total_addresses())
                                       : s.targets[s.emitted % s.targets.size()];
      ++s.emitted;
      out.push_back(s.builder.probe(net::SimTime::at(net::Duration::nanos(nanos)),
                                    space_.address_at(offset), s.port.port,
                                    s.port.type));
      push(index);
    }
    return out;
  }

 private:
  struct Stream {
    Stream(pkt::ProbeBuilder b, net::Rng r, PortSpec p) : builder(b), rng(r), port(p) {}
    pkt::ProbeBuilder builder;
    net::Rng rng;
    PortSpec port;
    std::vector<std::uint64_t> targets;
    std::uint64_t emitted = 0;
    std::uint64_t remaining = 0;
    double end_s = 0;
    double current_s = 0;
  };

  void add_streams(const ScannerProfile& scanner, const SessionSpec& session,
                   net::SimTime t0, net::SimTime t1, const PacketGenConfig& config,
                   net::Rng& scanner_rng, std::uint64_t& scanner_streams) {
    const std::uint64_t space_size = space_.total_addresses();
    const net::SimTime a = std::max(session.start, t0);
    const net::SimTime b = std::min(session.end(), t1);
    const double overlap_s = (b - a).total_seconds();
    const double session_s = session.duration.total_seconds();
    if (overlap_s <= 0 || session_s <= 0) return;
    const double frac = std::min(1.0, overlap_s / session_s);
    std::vector<PortSpec> ports = session.ports;
    if (session.sweep_port_count > 0) {
      const std::uint64_t count = std::min<std::uint64_t>(session.sweep_port_count, 65535);
      for (const std::uint64_t p : sample_distinct_offsets(65535, count, scanner_rng)) {
        ports.push_back({static_cast<std::uint16_t>(p + 1), pkt::TrafficType::TcpSyn});
      }
    }
    for (const PortSpec& port : ports) {
      const std::uint64_t uniques =
          sample_unique_targets(space_size, session.coverage, scanner_rng);
      if (uniques == 0) continue;
      const std::uint64_t total = session_packets_for_port(uniques, session.repeats);
      const std::uint64_t in_window =
          frac >= 1.0 ? total : scanner_rng.binomial(total, frac);
      if (in_window == 0) continue;
      const std::uint64_t id = config.stable_streams ? scanner_streams : streams_.size();
      ++scanner_streams;
      net::Rng builder_rng = scanner_rng.fork(id + 0x10000);
      Stream s(pkt::ProbeBuilder(scanner.source, scanner.tool, builder_rng),
               scanner_rng.fork(id + 1), port);
      s.remaining = in_window;
      s.current_s = (a - net::SimTime::epoch()).total_seconds();
      s.end_s = (b - net::SimTime::epoch()).total_seconds();
      if (config.exact_targets) s.targets = sample_distinct_offsets(space_size, uniques, s.rng);
      streams_.push_back(std::move(s));
    }
  }

  void push(std::size_t index) {
    Stream& s = streams_[index];
    if (s.remaining == 0) return;
    const double span = s.end_s - s.current_s;
    const double step =
        span * (1.0 - std::pow(s.rng.uniform(), 1.0 / static_cast<double>(s.remaining)));
    s.current_s += std::max(step, 0.0);
    --s.remaining;
    heap_.emplace(static_cast<std::int64_t>(s.current_s * 1e9), index);
  }

  net::PrefixSet space_;
  std::vector<Stream> streams_;
  using Entry = std::pair<std::int64_t, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
};

bool same_packet(const pkt::Packet& a, const pkt::Packet& b) {
  return a.timestamp == b.timestamp && a.tuple.src == b.tuple.src &&
         a.tuple.dst == b.tuple.dst && a.tuple.src_port == b.tuple.src_port &&
         a.tuple.dst_port == b.tuple.dst_port && a.tuple.proto == b.tuple.proto &&
         a.ip_id == b.ip_id && a.ttl == b.ttl && a.tcp_flags == b.tcp_flags &&
         a.tcp_seq == b.tcp_seq && a.tcp_window == b.tcp_window &&
         a.icmp_type == b.icmp_type && a.wire_length == b.wire_length;
}

/// Index of the first packet where the streams differ, or npos.
std::size_t first_packet_difference(const std::vector<pkt::Packet>& a,
                                    const std::vector<pkt::Packet>& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end(), same_packet);
  if (ia == a.end() && ib == b.end()) return std::string::npos;
  return static_cast<std::size_t>(ia - a.begin());
}

/// Drains `gen` the way its callers do, picked at random per call: next(),
/// next_batch() of 1-300 packets (perfbench and live_monitor cut batches
/// one packet at a time) and, first, `skip` packets through next() (a
/// live_monitor resume). peek_time() must name the next packet's time.
std::vector<pkt::Packet> drain_mixed(PacketStreamGenerator& gen, std::uint64_t seed,
                                     std::size_t skip) {
  net::Rng rng(seed);
  std::vector<pkt::Packet> out;
  pkt::PacketBatch batch;
  std::size_t wrong_peeks = 0;
  for (;;) {
    const std::optional<std::int64_t> peek = gen.peek_time();
    const std::size_t before = out.size();
    if (out.size() < skip || rng.chance(0.3)) {
      if (auto p = gen.next()) out.push_back(*p);
    } else {
      batch.clear();
      gen.next_batch(batch, rng.chance(0.5) ? 1 : 1 + rng.bounded(300));
      for (std::size_t i = 0; i < batch.size(); ++i) out.push_back(batch.packet_at(i));
    }
    if (!peek) {
      EXPECT_EQ(out.size(), before);
      break;
    }
    wrong_peeks += out.size() == before ||
                   out[before].timestamp.since_epoch().total_nanos() != *peek;
  }
  EXPECT_EQ(wrong_peeks, 0u);
  EXPECT_EQ(gen.packets_emitted(), out.size());
  return out;
}

/// Three hundred scanners whose one-nanosecond sessions all start at one
/// of two instants, so thousands of packets share a nanosecond, plus a
/// port sweeper whose streams are a block of adjacent stream indices.
std::vector<ScannerProfile> colliding_scanners() {
  std::vector<ScannerProfile> scanners;
  for (std::uint32_t i = 0; i < 301; ++i) {
    ScannerProfile s;
    s.source = net::Ipv4Address(0x0C000000u + i * 7919u);
    s.rng_stream = i + 1;
    s.tool = i % 4 == 0 ? pkt::ScanTool::ZMap : pkt::ScanTool::Masscan;
    SessionSpec session;
    if (i == 150) {
      session.start = net::SimTime::epoch();
      session.duration = net::Duration::hours(2);
      session.coverage = 0.02;
      session.sweep_port_count = 500;
    } else {
      session.start = net::SimTime::at(net::Duration::hours(i % 2));
      session.duration = net::Duration::nanos(1);
      session.coverage = 0.05;
      session.ports = {{static_cast<std::uint16_t>(1 + i % 3), pkt::TrafficType::TcpSyn},
                       {53, pkt::TrafficType::Udp}};
    }
    s.sessions.push_back(session);
    scanners.push_back(std::move(s));
  }
  return scanners;
}

TEST(PacketGen, ThreadCountDoesNotChangeTheStream) {
  const Scenario scenario{tiny()};
  const std::vector<ScannerProfile> colliding = colliding_scanners();
  const net::PrefixSet small_space({*net::Prefix::parse("198.18.0.0/22")});
  const net::SimTime t0 = net::SimTime::at(net::Duration::days(2));
  const net::SimTime t1 = net::SimTime::at(net::Duration::days(4));
  struct Input {
    const char* name;
    const std::vector<ScannerProfile>* scanners;
    const net::PrefixSet* space;
    net::SimTime start, end;
    PacketGenConfig config;
  };
  const std::vector<Input> inputs = {
      {"exact, legacy seeding", &scenario.population_2021().scanners,
       &scenario.darknet(), t0, t1, {.seed = 4}},
      {"uniform targets, stable seeding", &scenario.population_2021().scanners,
       &scenario.darknet(), t0, t1,
       {.seed = 5, .exact_targets = false, .stable_streams = true}},
      {"shard 1 of 3", &scenario.population_2021().scanners, &scenario.darknet(), t0,
       t1, {.seed = 6, .stable_streams = true, .shard = 1, .shard_count = 3}},
      {"colliding nanoseconds", &colliding, &small_space, net::SimTime::epoch(),
       net::SimTime::at(net::Duration::hours(3)), {.seed = 7}},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    const std::vector<pkt::Packet> reference =
        ReferencePacketGenerator(*in.scanners, *in.space, in.start, in.end, in.config)
            .drain();
    ASSERT_GT(reference.size(), 5000u);
    std::uint64_t seed = 0;
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      // 97 packets per window crosses hundreds of window edges.
      for (const std::size_t window : {std::size_t{97}, detail::kWindowPackets}) {
        SCOPED_TRACE(testing::Message() << threads << " threads, window " << window);
        PacketStreamGenerator gen(*in.scanners, *in.space, in.start, in.end, in.config,
                                  detail::PacketGenShape{threads, window});
        const std::size_t skip = seed % 2 == 0 ? 0 : reference.size() / 3;
        EXPECT_EQ(first_packet_difference(drain_mixed(gen, ++seed, skip), reference),
                  std::string::npos);
      }
    }
    PacketStreamGenerator batched(*in.scanners, *in.space, in.start, in.end, in.config);
    std::vector<pkt::Packet> out;
    batched.run_batched(256, [&](const pkt::PacketBatch& b) {
      for (std::size_t i = 0; i < b.size(); ++i) out.push_back(b.packet_at(i));
    });
    EXPECT_EQ(first_packet_difference(out, reference), std::string::npos);
  }

  // The collision input does what it is for: thousands of packets share a
  // nanosecond with their predecessor.
  const std::vector<pkt::Packet> tied_stream =
      ReferencePacketGenerator(colliding, small_space, net::SimTime::epoch(),
                               net::SimTime::at(net::Duration::hours(3)), {.seed = 7})
          .drain();
  std::size_t tied = 0;
  for (std::size_t i = 0; i + 1 < tied_stream.size(); ++i) {
    tied += tied_stream[i].timestamp == tied_stream[i + 1].timestamp;
  }
  EXPECT_GT(tied, 5000u);
}

TEST(PacketGen, RejectsInvalidShardConfig) {
  const Scenario scenario{tiny()};
  const auto make = [&](PacketGenConfig config) {
    PacketStreamGenerator gen(scenario.population_2021().scanners, scenario.darknet(),
                              net::SimTime::epoch(),
                              net::SimTime::at(net::Duration::hours(1)), config);
  };
  for (const std::size_t shard : {0u, 1u, 5u}) {
    EXPECT_THROW(make({.stable_streams = true, .shard = shard, .shard_count = 0}),
                 std::invalid_argument)
        << "shard " << shard;
  }
  EXPECT_THROW(make({.stable_streams = true, .shard = 2, .shard_count = 2}),
               std::invalid_argument);
  EXPECT_THROW(make({.shard = 0, .shard_count = 2}), std::invalid_argument);
  EXPECT_NO_THROW(make({.shard = 0, .shard_count = 1}));
  EXPECT_NO_THROW(make({.stable_streams = true, .shard = 1, .shard_count = 2}));
}

void add_packet(Fnv& h, const pkt::Packet& p) {
  h.add(p.timestamp);
  h.add(p.tuple.src);
  h.add(p.tuple.dst);
  h.add(p.tuple.src_port);
  h.add(p.tuple.dst_port);
  h.add(p.tuple.proto);
  h.add(p.ip_id);
  h.add(p.ttl);
  h.add(p.tcp_flags);
  h.add(p.tcp_seq);
  h.add(p.tcp_window);
  h.add(p.icmp_type);
  h.add(p.wire_length);
}

// The 4-day Darknet-1 packet feed of `perfbench/run.py --workload ingest
// --seed s`: the paper-scaled scenario and the generator both at seed s,
// exact targets, stable sub-streams. The constants were computed by the
// serial heap generator (one heap over every sub-stream); any change to
// them is a scenario-contract change, not a refactor.
TEST(PacketGen, PaperIngestStreamIsPinned) {
  struct Pin {
    std::uint64_t seed;
    std::uint64_t packets;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {1, 4283585, 0x7ca6a11207ce4782ull},
      {2, 4283072, 0x0e645f292c55c32bull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "seed " << pin.seed);
    ScenarioConfig config = paper_scaled();
    config.seed = pin.seed;
    const Scenario scenario(config);
    PacketStreamGenerator gen(
        scenario.population_2021().scanners, scenario.darknet(), net::SimTime::epoch(),
        net::SimTime::epoch() + net::Duration::days(4),
        {.seed = pin.seed, .exact_targets = true, .stable_streams = true});
    Fnv hash;
    std::uint64_t packets = 0;
    pkt::PacketBatch batch(256);
    for (;;) {
      batch.clear();
      if (gen.next_batch(batch, 256) == 0) break;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        add_packet(hash, batch.packet_at(i));
      }
      packets += batch.size();
    }
    EXPECT_EQ(packets, pin.packets);
    EXPECT_EQ(hash.value(), pin.hash);
  }
}

}  // namespace
}  // namespace orion::scangen
