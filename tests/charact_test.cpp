#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "charact_core.hpp"
#include "orion/charact/origins.hpp"
#include "orion/charact/portfig.hpp"
#include "orion/charact/temporal.hpp"
#include "orion/charact/validation.hpp"
#include "orion/detect/detector.hpp"
#include "orion/netbase/rng.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/stats/zipf.hpp"

namespace orion::charact {
namespace {

// Shared fixture: tiny scenario, synthesized 2021 dataset, detection run.
class CharactTest : public testing::Test {
 protected:
  struct World {
    scangen::Scenario scenario{scangen::tiny()};
    telescope::EventDataset dataset;
    detect::DetectionResult detection;

    World()
        : dataset(scangen::synthesize_events(
                      scenario.population_2021(),
                      {.darknet_size = scenario.darknet().total_addresses(),
                       .seed = 55}),
                  scenario.darknet().total_addresses()),
          detection(detect::AggressiveScannerDetector(
                        {.dispersion_threshold = 0.10,
                         .packet_volume_alpha = scenario.config().def2_alpha,
                         .port_count_alpha = scenario.config().def3_alpha})
                        .detect(dataset)) {}
  };

  static const World& world() {
    static const World w;
    return w;
  }
};

// ------------------------------------------------------------------- origins

TEST_F(CharactTest, OriginTableAggregatesByAs) {
  const auto& w = world();
  const detect::IpSet& ah = w.detection.of(detect::Definition::AddressDispersion).ips;
  ASSERT_GT(ah.size(), 10u);
  const OriginTable table =
      origin_table(w.dataset, ah, w.scenario.registry(), nullptr, nullptr, 10);
  ASSERT_FALSE(table.rows.empty());
  EXPECT_LE(table.rows.size(), 10u);
  // Rows are sorted by unique IPs.
  for (std::size_t i = 0; i + 1 < table.rows.size(); ++i) {
    EXPECT_GE(table.rows[i].unique_ips, table.rows[i + 1].unique_ips);
  }
  // /24s never exceed /32s; totals bound the rows.
  std::uint64_t row_ips = 0;
  for (const OriginRow& row : table.rows) {
    EXPECT_LE(row.unique_slash24s, row.unique_ips);
    EXPECT_GT(row.unique_ips, 0u);
    row_ips += row.unique_ips;
  }
  EXPECT_EQ(row_ips, table.top_ips);
  EXPECT_LE(table.top_ips, table.total_ips);
  EXPECT_LE(table.top_packets, table.total_packets);
}

TEST_F(CharactTest, OriginTablePacketsMatchAhEvents) {
  const auto& w = world();
  const detect::IpSet& ah = w.detection.of(detect::Definition::AddressDispersion).ips;
  const OriginTable table = origin_table(w.dataset, ah, w.scenario.registry(),
                                         nullptr, nullptr, 1000000);
  std::uint64_t expected = 0;
  for (const auto& e : w.dataset.events()) {
    if (ah.contains(e.key.src)) expected += e.packets;
  }
  EXPECT_EQ(table.total_packets, expected);
  EXPECT_EQ(table.top_packets, expected);  // top_n covers everything here
}

// ------------------------------------------------------------------ temporal

TEST_F(CharactTest, TemporalSeriesAreConsistent) {
  const auto& w = world();
  const auto trends = temporal_trends(w.dataset, w.detection,
                                      detect::Definition::AddressDispersion, {});
  const std::size_t days = trends.daily_ah.size();
  ASSERT_GT(days, 0u);
  for (std::size_t i = 0; i < days; ++i) {
    // Daily AH <= active AH <= all active; daily AH <= all daily.
    EXPECT_LE(trends.daily_ah[i], trends.active_ah[i]);
    EXPECT_LE(trends.active_ah[i], trends.all_active[i]);
    EXPECT_LE(trends.daily_ah[i], trends.all_daily[i]);
    EXPECT_LE(trends.daily_ah_packets[i], trends.total_packets[i]);
  }
  EXPECT_GT(trends.mean(trends.all_daily), 0.0);
  EXPECT_GT(trends.ah_packet_share(), 0.0);
  EXPECT_LE(trends.ah_packet_share(), 1.0);
  EXPECT_GT(trends.ah_ip_share(), 0.0);
  EXPECT_LT(trends.ah_ip_share(), 1.0);
}

TEST_F(CharactTest, NoiseInflatesTotalsOnly) {
  const auto& w = world();
  const std::size_t days = w.detection.of(detect::Definition::AddressDispersion)
                               .daily.size();
  const std::vector<std::uint64_t> noise(days, 1000);
  const auto quiet = temporal_trends(w.dataset, w.detection,
                                     detect::Definition::AddressDispersion, {});
  const auto noisy = temporal_trends(w.dataset, w.detection,
                                     detect::Definition::AddressDispersion, noise);
  for (std::size_t i = 0; i < days; ++i) {
    EXPECT_EQ(noisy.total_packets[i], quiet.total_packets[i] + 1000);
    EXPECT_EQ(noisy.daily_ah_packets[i], quiet.daily_ah_packets[i]);
  }
  EXPECT_LT(noisy.ah_packet_share(), quiet.ah_packet_share());
}

TEST(Temporal, MismatchedNoiseThrows) {
  const telescope::EventDataset dataset({}, 100);
  const detect::DetectionResult detection =
      detect::AggressiveScannerDetector().detect(dataset);
  EXPECT_NO_THROW(
      temporal_trends(dataset, detection, detect::Definition::AddressDispersion, {}));
}

TEST(Temporal, DatasetOutsideDetectionWindowThrows) {
  const auto event = [](std::int64_t day) {
    telescope::DarknetEvent e;
    e.key = {net::Ipv4Address(0x0B000001u), 23, pkt::TrafficType::TcpSyn};
    e.start = net::SimTime::at(net::Duration::days(day) + net::Duration::hours(3));
    e.end = e.start + net::Duration::hours(1);
    e.packets = 10;
    return e;
  };
  const telescope::EventDataset window({event(2), event(3), event(4)}, 100);
  const detect::DetectionResult detection =
      detect::AggressiveScannerDetector().detect(window);
  const auto trends = [&](const telescope::EventDataset& dataset) {
    return temporal_trends(dataset, detection, detect::Definition::AddressDispersion, {});
  };
  EXPECT_NO_THROW(trends(window));
  EXPECT_NO_THROW(trends(telescope::EventDataset({event(3)}, 100)));
  EXPECT_THROW(trends(telescope::EventDataset({event(1), event(3)}, 100)),
               std::invalid_argument);
  EXPECT_THROW(trends(telescope::EventDataset({event(3), event(5)}, 100)),
               std::invalid_argument);
}

// ----------------------------------------------------------------- top ports

TEST_F(CharactTest, TopPortsRankedWithToolShares) {
  const auto& w = world();
  const detect::IpSet& ah = w.detection.of(detect::Definition::AddressDispersion).ips;
  const auto rows = top_ports(w.dataset, ah, 25);
  ASSERT_FALSE(rows.empty());
  EXPECT_LE(rows.size(), 25u);
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_GE(rows[i].packets, rows[i + 1].packets);
  }
  for (const PortRow& row : rows) {
    std::uint64_t by_tool = 0;
    double share_sum = 0;
    for (std::size_t t = 0; t < row.by_tool.size(); ++t) {
      by_tool += row.by_tool[t];
      share_sum += row.tool_share(static_cast<pkt::ScanTool>(t));
    }
    EXPECT_EQ(by_tool, row.packets);
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------- validation

TEST_F(CharactTest, AckedValidationMatchesResearchAh) {
  const auto& w = world();
  asdb::ReverseDns rdns(&w.scenario.registry());
  const auto acked = intel::AckedScannerList::from_orgs(
      w.scenario.population_2021().orgs, rdns, intel::AckedConfig{});
  const detect::IpSet& ah = w.detection.of(detect::Definition::AddressDispersion).ips;
  const AckedValidation validation = validate_acked(w.dataset, ah, acked, rdns);
  EXPECT_GT(validation.total_ips, 0u);
  EXPECT_EQ(validation.total_ips, validation.ip_matches + validation.domain_matches);
  EXPECT_GT(validation.org_count, 0u);
  EXPECT_LE(validation.org_count, acked.org_count());
  EXPECT_LE(validation.matched_packets, validation.all_ah_packets);
  EXPECT_GT(validation.packet_share_percent(), 0.0);
  EXPECT_LT(validation.packet_share_percent(), 100.0);
}

TEST_F(CharactTest, IntersectionTableInvariants) {
  const auto& w = world();
  const auto rows = intersection_table(w.detection, w.scenario.registry());
  ASSERT_EQ(rows.size(), 7u);
  const auto& d1 = rows[0];
  const auto& d2 = rows[1];
  const auto& d12 = rows[3];
  const auto& d123 = rows[6];
  EXPECT_LE(d12.ips, std::min(d1.ips, d2.ips));
  EXPECT_LE(d123.ips, d12.ips);
  for (const IntersectionRow& row : rows) {
    EXPECT_LE(row.asns, row.ips);
    EXPECT_LE(row.orgs, row.asns + 1);
    EXPECT_LE(row.countries, row.asns + 1);
  }
}

TEST_F(CharactTest, JaccardD1D2IsHigh) {
  const auto& w = world();
  const double j = definition_jaccard(w.detection,
                                      detect::Definition::AddressDispersion,
                                      detect::Definition::PacketVolume);
  EXPECT_GE(j, 0.0);
  EXPECT_LE(j, 1.0);
}

TEST_F(CharactTest, GnBreakdownAndTags) {
  const auto& w = world();
  asdb::ReverseDns rdns(&w.scenario.registry());
  const auto acked = intel::AckedScannerList::from_orgs(
      w.scenario.population_2021().orgs, rdns, intel::AckedConfig{});
  intel::HoneypotConfig gn_config;
  gn_config.window_start_day = w.scenario.population_2021().config.window_start_day;
  gn_config.window_end_day = w.scenario.population_2021().config.window_end_day;
  intel::HoneypotNetwork gn(w.scenario.honeypots(), gn_config);
  gn.observe(w.scenario.population_2021());

  const detect::IpSet& ah = w.detection.of(detect::Definition::AddressDispersion).ips;
  const GnBreakdown breakdown = gn_breakdown(ah, gn, acked, rdns);
  EXPECT_EQ(breakdown.benign + breakdown.malicious + breakdown.unknown +
                breakdown.not_in_gn + breakdown.acked_removed,
            ah.size());
  // Nearly all non-ACKed AH appear in the honeypots (paper: 99.3%).
  EXPECT_GT(breakdown.overlap_percent(), 90.0);

  const auto tags = gn_tags(ah, gn, acked, rdns);
  EXPECT_GT(tags.distinct(), 2u);
  // The ACKed filter removes research scanners, so no benign-heavy tags top
  // the list by construction of the tiny scenario's categories.
}

TEST_F(CharactTest, PacketWeightsFeedZipfCurve) {
  const auto& w = world();
  const detect::IpSet& ah = w.detection.of(detect::Definition::AddressDispersion).ips;
  const auto weights = ah_packet_weights(w.dataset, ah);
  EXPECT_EQ(weights.size(), ah.size());
  const auto curve = stats::cumulative_contribution_curve(weights);
  ASSERT_FALSE(curve.empty());
  EXPECT_NEAR(curve.back(), 1.0, 1e-9);
  for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i + 1] + 1e-12);
  }
}

// -------------------------------------------------------------- naive oracle

// Naive std::set / std::map versions of the Fig 3 all-scanner series, the
// Fig 4 port ranking and the Table 5 origin table.

struct TemporalOracle {
  std::vector<std::uint64_t> all_daily, all_active;
};

TemporalOracle temporal_oracle(const telescope::EventDataset& dataset,
                               const detect::DetectionResult& detection) {
  const auto days = static_cast<std::size_t>(detection.last_day - detection.first_day + 1);
  std::vector<std::set<net::Ipv4Address>> daily(days), active(days);
  for (const telescope::DarknetEvent& e : dataset.events()) {
    daily[static_cast<std::size_t>(e.day() - detection.first_day)].insert(e.key.src);
    for (std::int64_t d = e.day(); d <= std::min(e.end.day(), detection.last_day); ++d) {
      active[static_cast<std::size_t>(d - detection.first_day)].insert(e.key.src);
    }
  }
  TemporalOracle out;
  for (std::size_t i = 0; i < days; ++i) {
    out.all_daily.push_back(daily[i].size());
    out.all_active.push_back(active[i].size());
  }
  return out;
}

std::vector<PortRow> top_ports_oracle(const telescope::EventDataset& dataset,
                                      const std::set<net::Ipv4Address>& ah,
                                      std::size_t top_n) {
  std::map<std::pair<std::uint16_t, pkt::TrafficType>, PortRow> rows;
  for (const telescope::DarknetEvent& e : dataset.events()) {
    if (!ah.contains(e.key.src)) continue;
    PortRow& row = rows[{e.key.dst_port, e.key.type}];
    row.port = e.key.dst_port;
    row.type = e.key.type;
    row.packets += e.packets;
    for (std::size_t t = 0; t < row.by_tool.size(); ++t) {
      row.by_tool[t] += e.packets_by_tool[t];
    }
  }
  std::vector<PortRow> out;
  for (const auto& [key, row] : rows) out.push_back(row);
  std::stable_sort(out.begin(), out.end(), [](const PortRow& a, const PortRow& b) {
    if (a.packets != b.packets) return a.packets > b.packets;
    return a.port < b.port;  // map order already breaks ties by type
  });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

void expect_same_rows(const std::vector<PortRow>& got, const std::vector<PortRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].port, want[i].port);
    EXPECT_EQ(got[i].type, want[i].type);
    EXPECT_EQ(got[i].packets, want[i].packets);
    EXPECT_EQ(got[i].by_tool, want[i].by_tool);
  }
}

void expect_origin_table_matches_oracle(const OriginTable& table,
                                        const telescope::EventDataset& dataset,
                                        const detect::IpSet& ah,
                                        const asdb::Registry& registry,
                                        const intel::AckedScannerList* acked,
                                        const asdb::ReverseDns* rdns, std::size_t top_n) {
  struct Agg {
    std::set<net::Ipv4Address> ips, slash24s, acked_ips;
    std::uint64_t packets = 0;
  };
  const auto asn_of = [&](net::Ipv4Address ip) {
    const asdb::AsRecord* as = registry.lookup(ip);
    return as ? as->asn : 0u;
  };
  std::map<std::uint32_t, Agg> by_asn;
  std::set<net::Ipv4Address> all_slash24s;
  for (const net::Ipv4Address ip : ah) {
    Agg& agg = by_asn[asn_of(ip)];
    agg.ips.insert(ip);
    agg.slash24s.insert(ip.slash24());
    all_slash24s.insert(ip.slash24());
    if (acked && rdns && acked->match(ip, *rdns)) agg.acked_ips.insert(ip);
  }
  std::uint64_t total_packets = 0;
  for (const telescope::DarknetEvent& e : dataset.events()) {
    if (!ah.contains(e.key.src)) continue;
    by_asn[asn_of(e.key.src)].packets += e.packets;
    total_packets += e.packets;
  }
  std::vector<std::pair<std::uint32_t, const Agg*>> order;
  for (const auto& [asn, agg] : by_asn) order.emplace_back(asn, &agg);
  std::stable_sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->ips.size() > b.second->ips.size();  // asn order breaks ties
  });
  if (order.size() > top_n) order.resize(top_n);

  EXPECT_EQ(table.total_ips, ah.size());
  EXPECT_EQ(table.total_slash24s, all_slash24s.size());
  EXPECT_EQ(table.total_packets, total_packets);
  ASSERT_EQ(table.rows.size(), order.size());
  std::uint64_t top_ips = 0, top_slash24s = 0, top_packets = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& [asn, agg] = order[i];
    const OriginRow& row = table.rows[i];
    const asdb::AsRecord* as = registry.find_asn(asn);
    EXPECT_EQ(row.asn, asn);
    EXPECT_EQ(row.as_type, as ? to_string(as->type) : "?");
    EXPECT_EQ(row.country, as ? as->country : "??");
    EXPECT_EQ(row.unique_ips, agg->ips.size());
    EXPECT_EQ(row.unique_slash24s, agg->slash24s.size());
    EXPECT_EQ(row.acked_ips, agg->acked_ips.size());
    EXPECT_EQ(row.packets, agg->packets);
    top_ips += agg->ips.size();
    top_slash24s += agg->slash24s.size();
    top_packets += agg->packets;
  }
  EXPECT_EQ(table.top_ips, top_ips);
  EXPECT_EQ(table.top_slash24s, top_slash24s);
  EXPECT_EQ(table.top_packets, top_packets);
}

TEST(CharactOracle, RandomDatasetMatchesNaiveTables) {
  asdb::RegistryConfig config;
  config.seed = 7;
  config.cloud_count = 4;
  config.isp_count = 6;
  config.hosting_count = 3;
  config.education_count = 2;
  config.content_count = 2;
  config.country_count = 5;
  const asdb::Registry registry = asdb::Registry::build(config);

  for (const std::uint64_t seed : {5u, 77u, 901u}) {
    SCOPED_TRACE(seed);
    net::Rng rng(seed);
    // Sources in a handful of ASes, some sharing a /24, plus one address
    // the registry may leave unattributed.
    std::vector<net::Ipv4Address> sources;
    for (int i = 0; i < 24; ++i) {
      const auto& records = registry.records();
      const net::Ipv4Address ip =
          registry.random_address_in_as(records[rng.bounded(records.size())], rng);
      sources.push_back(ip);
      if (i % 4 == 0) sources.push_back(net::Ipv4Address(ip.value() ^ 1u));
    }
    sources.push_back(net::Ipv4Address(0xF0000001u));

    // Multi-day events that overlap for one source, events that end past
    // the last start day, and TCP and UDP on one port.
    const std::uint16_t ports[] = {23, 53, 80, 443};
    std::vector<telescope::DarknetEvent> events;
    for (const net::Ipv4Address src : sources) {
      for (std::uint64_t k = 0, n = 1 + rng.bounded(6); k < n; ++k) {
        telescope::DarknetEvent e;
        const bool icmp = rng.bounded(8) == 0;
        e.key = {src, icmp ? std::uint16_t{0} : ports[rng.bounded(std::size(ports))],
                 icmp ? pkt::TrafficType::IcmpEchoReq
                      : (rng.bounded(2) == 0 ? pkt::TrafficType::TcpSyn
                                             : pkt::TrafficType::Udp)};
        const auto day = static_cast<std::int64_t>(rng.bounded(10));
        e.start = net::SimTime::at(
            net::Duration::days(day) +
            net::Duration::minutes(static_cast<std::int64_t>(rng.bounded(24 * 60))));
        e.end = e.start + net::Duration::hours(static_cast<std::int64_t>(rng.bounded(120)));
        for (std::uint64_t& tool : e.packets_by_tool) {
          tool = rng.bounded(30);
          e.packets += tool;
        }
        e.unique_dests = std::min<std::uint64_t>(e.packets, 20);
        events.push_back(e);
      }
    }
    const telescope::EventDataset dataset(std::move(events), 256);
    const detect::DetectionResult detection =
        detect::AggressiveScannerDetector().detect(dataset);
    ASSERT_GT(dataset.event_count(), 0u);
    bool ends_past_last_day = false;
    for (const auto& e : dataset.events()) {
      ends_past_last_day |= e.end.day() > dataset.last_day();
    }
    EXPECT_TRUE(ends_past_last_day);

    detect::IpSet ah;
    for (const net::Ipv4Address src : sources) {
      if (rng.bounded(2) == 0) ah.insert(src);
    }
    const std::set<net::Ipv4Address> ah_set(ah.begin(), ah.end());

    const TemporalTrends trends = temporal_trends(
        dataset, detection, detect::Definition::AddressDispersion, {});
    const TemporalOracle want = temporal_oracle(dataset, detection);
    EXPECT_EQ(trends.all_daily, want.all_daily);
    EXPECT_EQ(trends.all_active, want.all_active);

    for (const std::size_t top_n : {std::size_t{3}, std::size_t{1000}}) {
      SCOPED_TRACE(top_n);
      expect_same_rows(top_ports(dataset, ah, top_n), top_ports_oracle(dataset, ah_set, top_n));
      expect_origin_table_matches_oracle(
          origin_table(dataset, ah, registry, nullptr, nullptr, top_n), dataset, ah,
          registry, nullptr, nullptr, top_n);
    }

    // The same tables at explicit thread counts; at 8 there are fewer
    // events per chunk and sources per hash bucket than threads.
    for (const std::size_t n_threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(n_threads);
      const TemporalTrends split = detail::temporal_trends(
          dataset, detection, detect::Definition::AddressDispersion, {}, n_threads);
      EXPECT_EQ(split.all_daily, want.all_daily);
      EXPECT_EQ(split.all_active, want.all_active);
      for (const std::size_t top_n : {std::size_t{3}, std::size_t{1000}}) {
        SCOPED_TRACE(top_n);
        expect_same_rows(detail::top_ports(dataset, ah, top_n, n_threads),
                         top_ports_oracle(dataset, ah_set, top_n));
        expect_origin_table_matches_oracle(
            detail::origin_table(dataset, ah, registry, nullptr, nullptr, top_n, n_threads),
            dataset, ah, registry, nullptr, nullptr, top_n);
      }
    }
  }
}

TEST_F(CharactTest, ScenarioTablesMatchNaiveOracle) {
  const auto& w = world();
  asdb::ReverseDns rdns(&w.scenario.registry());
  const auto acked = intel::AckedScannerList::from_orgs(
      w.scenario.population_2021().orgs, rdns, intel::AckedConfig{});
  const TemporalOracle want = temporal_oracle(w.dataset, w.detection);
  for (const detect::Definition d : detect::kAllDefinitions) {
    SCOPED_TRACE(to_string(d));
    const detect::IpSet& ah = w.detection.of(d).ips;
    const TemporalTrends trends = temporal_trends(w.dataset, w.detection, d, {});
    EXPECT_EQ(trends.all_daily, want.all_daily);
    EXPECT_EQ(trends.all_active, want.all_active);
    expect_same_rows(top_ports(w.dataset, ah, 25),
                     top_ports_oracle(w.dataset, {ah.begin(), ah.end()}, 25));
    expect_origin_table_matches_oracle(
        origin_table(w.dataset, ah, w.scenario.registry(), &acked, &rdns, 10), w.dataset,
        ah, w.scenario.registry(), &acked, &rdns, 10);
  }
}

TEST(CharactOracle, TopPortsBreaksPacketTiesByType) {
  // TCP/53 and UDP/53 with equal packets: the ranking orders them by
  // traffic type, whatever order they were first seen in.
  const net::Ipv4Address src(0x0B000001u);
  const auto event = [&](std::uint16_t port, pkt::TrafficType type,
                         std::int64_t minute, std::uint64_t packets) {
    telescope::DarknetEvent e;
    e.key = {src, port, type};
    e.start = net::SimTime::at(net::Duration::minutes(minute));
    e.end = e.start + net::Duration::minutes(5);
    e.packets = packets;
    e.packets_by_tool[telescope::tool_index(pkt::ScanTool::Mirai)] = packets;
    return e;
  };
  const telescope::EventDataset dataset(
      {event(53, pkt::TrafficType::Udp, 1, 40), event(53, pkt::TrafficType::TcpSyn, 2, 40),
       event(80, pkt::TrafficType::TcpSyn, 3, 40), event(23, pkt::TrafficType::TcpSyn, 4, 90),
       event(80, pkt::TrafficType::Udp, 5, 40)},
      16);
  const auto rows = top_ports(dataset, detect::IpSet{src}, 25);
  ASSERT_EQ(rows.size(), 5u);
  const std::pair<std::uint16_t, pkt::TrafficType> want[] = {
      {23, pkt::TrafficType::TcpSyn}, {53, pkt::TrafficType::TcpSyn},
      {53, pkt::TrafficType::Udp}, {80, pkt::TrafficType::TcpSyn},
      {80, pkt::TrafficType::Udp}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].port, want[i].first) << i;
    EXPECT_EQ(rows[i].type, want[i].second) << i;
  }
}

}  // namespace
}  // namespace orion::charact
