#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "detector_core.hpp"
#include "orion/detect/detector.hpp"
#include "orion/detect/lists.hpp"
#include "orion/detect/port_set.hpp"
#include "orion/netbase/rng.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/ode2.hpp"
#include "sources.hpp"

namespace orion::detect {
namespace {

constexpr std::uint64_t kDarknetSize = 1000;

telescope::DarknetEvent make_event(const char* src, std::uint16_t port,
                                   std::int64_t day, std::uint64_t packets,
                                   std::uint64_t uniques,
                                   pkt::TrafficType type = pkt::TrafficType::TcpSyn,
                                   std::int64_t end_day = -1) {
  telescope::DarknetEvent e;
  e.key.src = *net::Ipv4Address::parse(src);
  e.key.dst_port = port;
  e.key.type = type;
  e.start = net::SimTime::at(net::Duration::days(day) + net::Duration::hours(6));
  e.end = end_day < 0 ? e.start + net::Duration::hours(2)
                      : net::SimTime::at(net::Duration::days(end_day) +
                                         net::Duration::hours(6));
  e.packets = packets;
  e.unique_dests = uniques;
  e.packets_by_tool[telescope::tool_index(pkt::ScanTool::Other)] = packets;
  return e;
}

telescope::EventDataset background_plus(std::vector<telescope::DarknetEvent> extra) {
  // 200 background sources with 1..5 same-day single-port events each keep
  // both ECDFs (per-event packets, per-day distinct ports) well-populated
  // and non-degenerate.
  std::vector<telescope::DarknetEvent> events;
  for (int s = 0; s < 200; ++s) {
    const std::string src =
        net::Ipv4Address(0x0A000000u + static_cast<std::uint32_t>(s)).to_string();
    for (int k = 0; k <= s % 5; ++k) {
      events.push_back(make_event(src.c_str(),
                                  static_cast<std::uint16_t>(80 + k), s % 5,
                                  5 + static_cast<std::uint64_t>(s % 7), 5));
    }
  }
  for (auto& e : extra) events.push_back(std::move(e));
  return telescope::EventDataset(std::move(events), kDarknetSize);
}

DetectorConfig test_config() {
  DetectorConfig config;
  config.packet_volume_alpha = 0.005;  // top ~5 of 1000 background events
  config.port_count_alpha = 0.005;
  return config;
}

// ------------------------------------------------------------- definition 1

TEST(Detector, Definition1FlagsDispersedEvents) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 150, 120),  // 12% >= 10% -> AH
      make_event("203.0.113.2", 23, 2, 150, 80),   // 8% -> not AH
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d1 = result.of(Definition::AddressDispersion);
  EXPECT_TRUE(d1.ips.contains(*net::Ipv4Address::parse("203.0.113.1")));
  EXPECT_FALSE(d1.ips.contains(*net::Ipv4Address::parse("203.0.113.2")));
  EXPECT_EQ(d1.qualifying_events, 1u);
  EXPECT_EQ(d1.threshold, 0u);
}

TEST(Detector, Definition1BoundaryIsInclusive) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 100, 100),  // exactly 10%
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  EXPECT_TRUE(result.of(Definition::AddressDispersion)
                  .ips.contains(*net::Ipv4Address::parse("203.0.113.1")));
}

// ------------------------------------------------------------- definition 2

TEST(Detector, Definition2UsesEcdfTail) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 100000, 90),  // giant event
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d2 = result.of(Definition::PacketVolume);
  EXPECT_TRUE(d2.ips.contains(*net::Ipv4Address::parse("203.0.113.1")));
  EXPECT_GE(d2.threshold, 11u);     // at/above every background event
  EXPECT_LT(d2.threshold, 100000u); // below the giant
  // Background sources stay out (qualification is strictly greater).
  EXPECT_LT(d2.ips.size(), 10u);
}

// ------------------------------------------------------------- definition 3

TEST(Detector, Definition3CountsDailyDistinctPorts) {
  std::vector<telescope::DarknetEvent> sweep;
  for (std::uint16_t p = 1; p <= 60; ++p) {
    sweep.push_back(make_event("203.0.113.3", p, 2, 2, 2));
  }
  const auto dataset = background_plus(std::move(sweep));
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d3 = result.of(Definition::DistinctPorts);
  EXPECT_TRUE(d3.ips.contains(*net::Ipv4Address::parse("203.0.113.3")));
  EXPECT_GT(d3.threshold, 3u);
  EXPECT_LE(d3.threshold, 60u);
  // Sources with a single daily port never qualify.
  EXPECT_FALSE(d3.ips.contains(net::Ipv4Address(0x0A000000u)));
}

TEST(Detector, Definition3SplitsAcrossDays) {
  // 30 ports on each of two days — each day's count is 30, not 60.
  std::vector<telescope::DarknetEvent> sweep;
  for (std::uint16_t p = 1; p <= 30; ++p) {
    sweep.push_back(make_event("203.0.113.3", p, 2, 2, 2));
    sweep.push_back(make_event("203.0.113.3", static_cast<std::uint16_t>(100 + p),
                               3, 2, 2));
  }
  const auto dataset = background_plus(std::move(sweep));
  DetectorConfig config = test_config();
  config.port_count_alpha = 0.0005;  // threshold lands above 30
  const DetectionResult result = AggressiveScannerDetector(config).detect(dataset);
  const DefinitionResult& d3 = result.of(Definition::DistinctPorts);
  if (d3.threshold > 30) {
    EXPECT_FALSE(d3.ips.contains(*net::Ipv4Address::parse("203.0.113.3")));
  }
}

TEST(Detector, IcmpEventsDoNotCountAsPorts) {
  std::vector<telescope::DarknetEvent> events;
  for (int i = 0; i < 50; ++i) {
    events.push_back(make_event("203.0.113.4", 0, 2, 3, 3,
                                pkt::TrafficType::IcmpEchoReq));
  }
  const auto dataset = background_plus(std::move(events));
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  EXPECT_FALSE(result.of(Definition::DistinctPorts)
                   .ips.contains(*net::Ipv4Address::parse("203.0.113.4")));
}

// ------------------------------------------------------- daily / active sets

TEST(Detector, DailyAndActiveAccounting) {
  const auto dataset = background_plus({
      // Qualifying D1 event spanning days 1..3.
      make_event("203.0.113.1", 23, 1, 400, 400, pkt::TrafficType::TcpSyn, 3),
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d1 = result.of(Definition::AddressDispersion);
  const net::Ipv4Address src = *net::Ipv4Address::parse("203.0.113.1");
  const auto day_index = [&](std::int64_t day) {
    return static_cast<std::size_t>(day - result.first_day);
  };
  const auto in = [&](const std::vector<net::Ipv4Address>& v) {
    return std::binary_search(v.begin(), v.end(), src);
  };
  EXPECT_TRUE(in(d1.daily[day_index(1)]));
  EXPECT_FALSE(in(d1.daily[day_index(2)]));
  EXPECT_TRUE(in(d1.active[day_index(1)]));
  EXPECT_TRUE(in(d1.active[day_index(2)]));
  EXPECT_TRUE(in(d1.active[day_index(3)]));
  EXPECT_FALSE(in(d1.active[day_index(4)]));
}

TEST(Detector, DailyAhPacketsIncludeAllTheirEvents) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 400, 400),  // qualifying
      make_event("203.0.113.1", 80, 2, 7, 7),      // small event, same src+day
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d1 = result.of(Definition::AddressDispersion);
  const auto index = static_cast<std::size_t>(2 - result.first_day);
  EXPECT_EQ(d1.daily_ah_packets[index], 407u);
}

TEST(Detector, TotalPacketsPerDayCoverEverything) {
  const auto dataset = background_plus({});
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  std::uint64_t total = 0;
  for (const std::uint64_t day : result.total_event_packets_per_day) total += day;
  EXPECT_EQ(total, dataset.total_packets());
}

TEST(Detector, EmptyDatasetYieldsEmptyResult) {
  const telescope::EventDataset dataset({}, kDarknetSize);
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  for (const Definition d : kAllDefinitions) {
    EXPECT_TRUE(result.of(d).ips.empty());
    EXPECT_TRUE(result.of(d).daily.empty());
  }
}

TEST(Detector, ConfigValidation) {
  DetectorConfig config;
  config.dispersion_threshold = 0;
  EXPECT_THROW(AggressiveScannerDetector{config}, std::invalid_argument);
  config = {};
  config.packet_volume_alpha = 1.0;
  EXPECT_THROW(AggressiveScannerDetector{config}, std::invalid_argument);
  config = {};
  config.port_count_alpha = 0.0;
  EXPECT_THROW(AggressiveScannerDetector{config}, std::invalid_argument);
}

// ------------------------------------------------------------ naive oracle

// Days 0..7 of random traffic from 60 sources that reuse ports across
// days, with ICMP events, multi-day events, and day 5 carrying a single
// source. One port sweeper hits 30 ports on even days and 2 ports (each
// 20 times) on odd days, so the D3 threshold is crossed on some of its
// days only.
telescope::EventDataset random_dataset(std::uint64_t seed) {
  net::Rng rng(seed);
  const std::uint16_t ports[] = {22, 23, 53, 80, 443, 2323, 3389, 8080};
  std::vector<telescope::DarknetEvent> events;
  const auto add = [&](std::uint32_t src, std::uint16_t port, pkt::TrafficType type,
                       std::int64_t day) {
    telescope::DarknetEvent e;
    e.key = {net::Ipv4Address(src), port, type};
    e.start = net::SimTime::at(net::Duration::days(day) +
                               net::Duration::minutes(static_cast<std::int64_t>(
                                   rng.bounded(24 * 60))));
    e.end = e.start + net::Duration::hours(static_cast<std::int64_t>(rng.bounded(80)));
    e.packets = rng.bounded(8) == 0 ? 2000 + rng.bounded(5000) : 1 + rng.bounded(60);
    e.unique_dests = std::min<std::uint64_t>(
        e.packets, rng.bounded(6) == 0 ? 80 + rng.bounded(200) : rng.bounded(50));
    e.packets_by_tool[telescope::tool_index(pkt::ScanTool::Other)] = e.packets;
    events.push_back(e);
  };
  for (std::int64_t day = 0; day < 8; ++day) {
    const int sources = day == 5 ? 1 : 30;
    for (int s = 0; s < sources; ++s) {
      const auto src = 0x0A000000u + static_cast<std::uint32_t>(rng.bounded(60));
      for (std::uint64_t k = 0, n = 1 + rng.bounded(4); k < n; ++k) {
        if (rng.bounded(6) == 0) {
          add(src, 0, pkt::TrafficType::IcmpEchoReq, day);
        } else {
          const std::uint16_t port = ports[rng.bounded(std::size(ports))];
          add(src, port,
              rng.bounded(4) == 0 ? pkt::TrafficType::Udp : pkt::TrafficType::TcpSyn,
              day);
        }
      }
    }
    if (day == 5) continue;
    const int sweep = day % 2 == 0 ? 30 : 40;
    for (int p = 0; p < sweep; ++p) {
      add(0xCB007109u, static_cast<std::uint16_t>(1000 + (day % 2 == 0 ? p : p % 2)),
          pkt::TrafficType::TcpSyn, day);
    }
  }
  return telescope::EventDataset(std::move(events), kDarknetSize);
}

std::uint64_t oracle_threshold(std::vector<std::uint64_t> samples, double alpha) {
  std::sort(samples.begin(), samples.end());
  auto index = static_cast<std::size_t>(
      std::ceil((1.0 - alpha) * static_cast<double>(samples.size())));
  if (index > 0) --index;
  return samples[std::min(index, samples.size() - 1)];
}

TEST(Detector, MatchesNaiveSetOracle) {
  for (const std::uint64_t seed : {3u, 19u, 2024u}) {
    SCOPED_TRACE(seed);
    const telescope::EventDataset dataset = random_dataset(seed);
    const DetectorConfig config = test_config();
    const DetectionResult result = AggressiveScannerDetector(config).detect(dataset);

    const std::int64_t first = dataset.first_day();
    const std::int64_t last = dataset.last_day();
    const auto days = static_cast<std::size_t>(last - first + 1);
    std::map<std::pair<net::Ipv4Address, std::int64_t>, std::set<std::uint16_t>> ports;
    std::vector<std::uint64_t> packets;
    std::vector<std::uint64_t> total(days, 0);
    for (const telescope::DarknetEvent& e : dataset.events()) {
      packets.push_back(e.packets);
      total[static_cast<std::size_t>(e.day() - first)] += e.packets;
      if (e.key.type != pkt::TrafficType::IcmpEchoReq) {
        ports[{e.key.src, e.day()}].insert(e.key.dst_port);
      }
    }
    std::vector<std::uint64_t> port_counts;
    for (const auto& [key, set] : ports) port_counts.push_back(set.size());
    const std::uint64_t threshold2 = oracle_threshold(packets, config.packet_volume_alpha);
    const std::uint64_t threshold3 = oracle_threshold(port_counts, config.port_count_alpha);

    std::array<std::set<net::Ipv4Address>, 3> ips;
    std::array<std::uint64_t, 3> qualifying{};
    std::array<std::vector<std::set<net::Ipv4Address>>, 3> daily, active;
    for (std::size_t k = 0; k < 3; ++k) {
      daily[k].resize(days);
      active[k].resize(days);
    }
    const auto qualify = [&](std::size_t k, net::Ipv4Address src, std::int64_t from,
                             std::int64_t to) {
      ++qualifying[k];
      ips[k].insert(src);
      daily[k][static_cast<std::size_t>(from - first)].insert(src);
      for (std::int64_t d = from; d <= std::min(to, last); ++d) {
        active[k][static_cast<std::size_t>(d - first)].insert(src);
      }
    };
    for (const telescope::DarknetEvent& e : dataset.events()) {
      if (e.dispersion(kDarknetSize) >= config.dispersion_threshold) {
        qualify(0, e.key.src, e.day(), e.end.day());
      }
      if (e.packets > threshold2) qualify(1, e.key.src, e.day(), e.end.day());
    }
    std::size_t sweeper_days = 0;
    for (const auto& [key, set] : ports) {
      if (set.size() < threshold3) continue;
      qualify(2, key.first, key.second, key.second);
      sweeper_days += key.first == net::Ipv4Address(0xCB007109u);
    }
    // The sweeper qualifies on its 30-port days and not on its 2-port days.
    EXPECT_EQ(sweeper_days, 4u);

    std::array<std::vector<std::uint64_t>, 3> daily_packets;
    for (std::size_t k = 0; k < 3; ++k) {
      daily_packets[k].assign(days, 0);
      for (const telescope::DarknetEvent& e : dataset.events()) {
        const auto d = static_cast<std::size_t>(e.day() - first);
        if (daily[k][d].contains(e.key.src)) daily_packets[k][d] += e.packets;
      }
    }

    const auto as_vectors = [](const std::vector<std::set<net::Ipv4Address>>& sets) {
      std::vector<std::vector<net::Ipv4Address>> out;
      for (const auto& set : sets) out.emplace_back(set.begin(), set.end());
      return out;
    };
    EXPECT_EQ(result.total_event_packets_per_day, total);
    EXPECT_EQ(result.of(Definition::PacketVolume).threshold, threshold2);
    EXPECT_EQ(result.of(Definition::DistinctPorts).threshold, threshold3);
    for (std::size_t k = 0; k < 3; ++k) {
      SCOPED_TRACE(k);
      const DefinitionResult& def = result.by_definition[k];
      EXPECT_EQ(std::set<net::Ipv4Address>(def.ips.begin(), def.ips.end()), ips[k]);
      EXPECT_EQ(def.qualifying_events, qualifying[k]);
      EXPECT_EQ(def.daily, as_vectors(daily[k]));
      EXPECT_EQ(def.active, as_vectors(active[k]));
      EXPECT_EQ(def.daily_ah_packets, daily_packets[k]);
    }
  }
}

/// A Source over a plain vector, to feed detect_core an order the
/// EventDataset constructor would have repaired.
struct VectorSource {
  std::vector<telescope::DarknetEvent> events;

  std::uint64_t darknet_size() const { return kDarknetSize; }
  std::uint64_t event_count() const { return events.size(); }
  std::int64_t first_day() const { return 0; }
  std::int64_t last_day() const { return 3; }
  std::uint64_t day_begin(std::int64_t day) const {
    std::uint64_t row = 0;
    while (row < events.size() && events[row].day() < day) ++row;
    return row;
  }
  template <typename Fn>
  void for_each_event_in_rows(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    for (std::uint64_t i = lo; i < hi; ++i) fn(events[i]);
  }
};

TEST(Detector, DayRegressionBreaksTheSourceContract) {
  VectorSource source{{make_event("203.0.113.1", 23, 0, 5, 5),
                       make_event("203.0.113.1", 80, 2, 5, 5),
                       make_event("203.0.113.2", 23, 1, 5, 5)}};
  EXPECT_THROW(detail::detect_core(test_config(), source), std::logic_error);
  source.events = {make_event("203.0.113.1", 23, 0, 5, 5),
                   make_event("203.0.113.1", 80, 4, 5, 5)};  // past last_day
  EXPECT_THROW(detail::detect_core(test_config(), source), std::logic_error);
  source.events = {make_event("203.0.113.1", 23, 0, 5, 5),
                   make_event("203.0.113.2", 23, 0, 5, 5),
                   make_event("203.0.113.1", 80, 3, 5, 5)};
  EXPECT_NO_THROW(detail::detect_core(test_config(), source));
}

// ------------------------------------------------- thread-count invariance

void expect_same_detection(const DetectionResult& got, const DetectionResult& want) {
  EXPECT_EQ(got.first_day, want.first_day);
  EXPECT_EQ(got.last_day, want.last_day);
  EXPECT_EQ(got.total_events, want.total_events);
  EXPECT_EQ(got.darknet_size, want.darknet_size);
  EXPECT_EQ(got.total_event_packets_per_day, want.total_event_packets_per_day);
  for (std::size_t k = 0; k < 3; ++k) {
    SCOPED_TRACE(k);
    const DefinitionResult& x = got.by_definition[k];
    const DefinitionResult& y = want.by_definition[k];
    // Iteration order too, not just membership.
    EXPECT_EQ(std::vector(x.ips.begin(), x.ips.end()),
              std::vector(y.ips.begin(), y.ips.end()));
    EXPECT_EQ(x.threshold, y.threshold);
    EXPECT_EQ(x.qualifying_events, y.qualifying_events);
    EXPECT_EQ(x.daily, y.daily);
    EXPECT_EQ(x.active, y.active);
    EXPECT_EQ(x.daily_ah_packets, y.daily_ah_packets);
  }
}

/// The events of `dataset` whose start day passes `keep`.
template <typename Keep>
telescope::EventDataset only_days(const telescope::EventDataset& dataset, Keep keep) {
  std::vector<telescope::DarknetEvent> events;
  for (const telescope::DarknetEvent& e : dataset.events()) {
    if (keep(e.day())) events.push_back(e);
  }
  return telescope::EventDataset(std::move(events), dataset.darknet_size());
}

TEST(Detector, ThreadCountDoesNotChangeTheResult) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("orion_detect_test_" + std::to_string(::getpid()) + ".ode2"))
          .string();
  for (const std::uint64_t seed : {3u, 19u, 2024u}) {
    SCOPED_TRACE(seed);
    // Multi-day events (up to 80 h) cross every chunk edge; the gapped
    // dataset has empty days inside its window; the single-day one gets
    // more threads than days.
    const telescope::EventDataset full = random_dataset(seed);
    const std::pair<const char*, telescope::EventDataset> cases[] = {
        {"multi-day", full},
        {"empty days", only_days(full, [](std::int64_t d) { return d != 1 && d != 2 && d != 6; })},
        {"single day", only_days(full, [](std::int64_t d) { return d == 4; })},
    };
    for (const auto& [name, dataset] : cases) {
      SCOPED_TRACE(name);
      ASSERT_GT(dataset.event_count(), 0u);
      const DetectionResult want = AggressiveScannerDetector(test_config()).detect(dataset);
      {
        // 7-row blocks, so chunk row ranges start and end mid-block.
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        store::write_events_ode2(dataset, out, 7);
      }
      const store::MappedEventStore store(path);
      for (const std::size_t n_threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE(n_threads);
        expect_same_detection(
            detail::detect_core(test_config(), detail::DatasetSource{dataset}, n_threads),
            want);
        expect_same_detection(
            detail::detect_core(test_config(), detail::StoreSource{store}, n_threads),
            want);
      }
    }
  }
  std::remove(path.c_str());
}

// -------------------------------------------------------------------- lists

TEST(Lists, BuildMergesDefinitions) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 100000, 400),  // D1 + D2
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const auto entries = build_daily_lists(result);
  const net::Ipv4Address src = *net::Ipv4Address::parse("203.0.113.1");
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const DailyListEntry& e) { return e.ip == src; });
  ASSERT_NE(it, entries.end());
  EXPECT_TRUE(it->matches(Definition::AddressDispersion));
  EXPECT_TRUE(it->matches(Definition::PacketVolume));
  EXPECT_EQ(it->day, 2);
}

TEST(Lists, CsvRoundTrip) {
  std::vector<DailyListEntry> entries = {
      {5, *net::Ipv4Address::parse("203.0.113.1"), 0b011},
      {6, *net::Ipv4Address::parse("203.0.113.2"), 0b100},
  };
  std::stringstream stream;
  EXPECT_EQ(write_daily_lists_csv(entries, stream), 2u);
  const auto read = read_daily_lists_csv(stream);
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[0], entries[0]);
  EXPECT_EQ(read[1], entries[1]);
}

TEST(Lists, CsvRejectsMalformedInput) {
  const auto expect_throw = [](const std::string& content) {
    std::istringstream in(content);
    EXPECT_THROW(read_daily_lists_csv(in), std::runtime_error) << content;
  };
  expect_throw("wrong,header,row\n");
  expect_throw("date,ip,definitions\nnot-a-date,1.2.3.4,1\n");
  expect_throw("date,ip,definitions\n2021-01-05,999.2.3.4,1\n");
  expect_throw("date,ip,definitions\n2021-01-05,1.2.3.4,9\n");
  expect_throw("date,ip,definitions\n2021-01-05,1.2.3.4,\n");
  expect_throw("date,ip,definitions\n2021-01-05\n");
}

TEST(Lists, CsvErrorsCarryLineNumberAndReason) {
  // Corpus of malformed files: every rejection must name the offending
  // line and the reason, so an operator can fix a multi-megabyte list
  // without bisecting it.
  const auto message_of = [](const std::string& content) -> std::string {
    std::istringstream in(content);
    try {
      read_daily_lists_csv(in);
    } catch (const std::runtime_error& err) {
      return err.what();
    }
    return "";
  };
  const std::string good = "2021-01-05,1.2.3.4,1\n";
  const struct {
    std::string content;
    const char* line;
    const char* reason;
  } corpus[] = {
      {"definitions,ip,date\n", "line 1", "header"},
      {"date,ip,definitions\n" + good + "2021-01,5.6.7.8,1\n", "line 3",
       "bad date"},
      // Numeric-looking but non-digit date: must not slip through via a
      // partial integer parse.
      {"date,ip,definitions\n" + good + good + "abcd-ef-gh,5.6.7.8,1\n",
       "line 4", "bad date"},
      {"date,ip,definitions\n" + good + "20x1-01-05,5.6.7.8,1\n", "line 3",
       "bad date"},
      {"date,ip,definitions\n" + good + "2021-01-05,999.1.2.3,1\n", "line 3",
       "bad IP"},
      {"date,ip,definitions\n" + good + "2021-01-05,5.6.7.8,4\n", "line 3",
       "bad definition"},
      {"date,ip,definitions\n" + good + "2021-01-05,5.6.7.8,+\n", "line 3",
       "empty definition"},
      {"date,ip,definitions\n" + good + "2021-01-05,5.6.7.8\n", "line 3",
       "3 fields"},
  };
  for (const auto& expectation : corpus) {
    const std::string message = message_of(expectation.content);
    EXPECT_NE(message.find(expectation.line), std::string::npos)
        << expectation.content << " -> " << message;
    EXPECT_NE(message.find(expectation.reason), std::string::npos)
        << expectation.content << " -> " << message;
  }
}

TEST(Lists, CsvUsesCalendarDates) {
  std::vector<DailyListEntry> entries = {
      {365, *net::Ipv4Address::parse("1.2.3.4"), 1}};
  std::stringstream stream;
  write_daily_lists_csv(entries, stream);
  EXPECT_NE(stream.str().find("2022-01-01"), std::string::npos);
}

}  // namespace
}  // namespace orion::detect

// NOTE: appended suite — online/streaming detection.
#include "orion/detect/streaming.hpp"
#include "orion/detect/shard_detector.hpp"

namespace orion::detect {
namespace {

StreamingConfig streaming_config() {
  StreamingConfig config;
  config.base = test_config();
  config.warmup_samples = 100;
  return config;
}

TEST(StreamingDetector, EmitsDayResultsAtBoundaries) {
  StreamingDetector detector(streaming_config(), kDarknetSize);
  // Day 0: background; day 1: one big dispersed event; day 3: trigger.
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(detector.observe(make_event("10.0.0.1", 80, 0, 5, 5)).empty());
  }
  const auto none = detector.observe(make_event("203.0.113.1", 23, 1, 400, 400));
  ASSERT_EQ(none.size(), 1u);  // day 0 closed
  EXPECT_EQ(none[0].day, 0);

  const auto results = detector.observe(make_event("10.0.0.2", 80, 3, 5, 5));
  ASSERT_EQ(results.size(), 2u);  // days 1 and 2 closed
  EXPECT_EQ(results[0].day, 1);
  EXPECT_TRUE(results[0].calibrated);
  const auto& d1_list = results[0].daily[0];
  EXPECT_TRUE(std::binary_search(d1_list.begin(), d1_list.end(),
                                 *net::Ipv4Address::parse("203.0.113.1")));
  // Day 2 had no events at all.
  EXPECT_TRUE(results[1].daily[0].empty());

  const auto last = detector.finish();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->day, 3);
  EXPECT_FALSE(detector.finish().has_value());
}

TEST(StreamingDetector, WithholdsListsDuringWarmup) {
  StreamingConfig config = streaming_config();
  config.warmup_samples = 1000000;  // never warm
  StreamingDetector detector(config, kDarknetSize);
  detector.observe(make_event("203.0.113.1", 23, 0, 400, 400));
  const auto results = detector.observe(make_event("10.0.0.1", 80, 1, 5, 5));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].calibrated);
  EXPECT_TRUE(results[0].daily[0].empty());  // even D1 withheld pre-warmup
}

TEST(StreamingDetector, RejectsOutOfOrderDays) {
  StreamingDetector detector(streaming_config(), kDarknetSize);
  detector.observe(make_event("10.0.0.1", 80, 5, 5, 5));
  EXPECT_THROW(detector.observe(make_event("10.0.0.1", 80, 4, 5, 5)),
               std::invalid_argument);
}

TEST(StreamingDetector, AgreesWithBatchOnDefinition1) {
  // D1 is threshold-free, so streaming and batch must match exactly.
  std::vector<telescope::DarknetEvent> events;
  for (int s = 0; s < 200; ++s) {
    const std::string src =
        net::Ipv4Address(0x0A000000u + static_cast<std::uint32_t>(s)).to_string();
    events.push_back(make_event(src.c_str(), 80, s % 5, 5, s % 3 == 0 ? 150 : 5));
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  const telescope::EventDataset dataset(events, kDarknetSize);
  const DetectionResult batch =
      AggressiveScannerDetector(test_config()).detect(dataset);

  StreamingConfig config = streaming_config();
  config.warmup_samples = 0;
  StreamingDetector streaming(config, kDarknetSize);
  for (const auto& e : dataset.events()) streaming.observe(e);
  streaming.finish();
  EXPECT_EQ(streaming.ips(Definition::AddressDispersion),
            batch.of(Definition::AddressDispersion).ips);
}

TEST(StreamingDetector, RejectsZeroDarknet) {
  EXPECT_THROW(StreamingDetector(streaming_config(), 0), std::invalid_argument);
}

// ----------------------------------------------------- day-close oracle

/// The top-alpha value of a rolling sample, recomputed from scratch: every
/// sample when they all fit, else a fresh bottom-k sampler's pick.
std::uint64_t naive_rolling_threshold(
    const std::vector<std::array<std::uint64_t, 3>>& samples,
    std::size_t capacity, std::uint64_t seed, double alpha) {
  std::vector<std::uint64_t> values;
  if (samples.size() <= capacity) {
    for (const auto& s : samples) values.push_back(s[2]);
  } else {
    stats::BottomKSampler sampler(capacity, seed);
    for (const auto& s : samples) sampler.add(s[0], s[1], s[2]);
    values = sampler.values();
  }
  return oracle_threshold(std::move(values), alpha);
}

/// The online detector's day-close contract, recomputed from scratch for
/// every day D in the dataset's window: calibrated iff the events up to D
/// reach warm-up; the D2 threshold is the top-alpha packet volume over
/// those events; the D3 threshold the top-alpha distinct-port count over
/// per-(src, day < D) non-ICMP port sets (0 when there are none).
std::vector<StreamingDayResult> naive_day_close(
    const telescope::EventDataset& dataset, const StreamingConfig& config,
    std::array<IpSet, 3>& ips) {
  std::vector<StreamingDayResult> days;
  for (std::int64_t day = dataset.first_day(); day <= dataset.last_day(); ++day) {
    std::vector<std::array<std::uint64_t, 3>> packet_samples;
    std::map<std::pair<std::int64_t, net::Ipv4Address>, std::set<std::uint16_t>>
        past_ports;
    std::map<net::Ipv4Address, std::uint64_t> best;
    std::map<net::Ipv4Address, std::set<std::uint16_t>> ports;
    std::set<net::Ipv4Address> d1;
    for (const telescope::DarknetEvent& e : dataset.events()) {
      if (e.day() > day) continue;
      packet_samples.push_back(
          {packet_sample_id(e.key),
           static_cast<std::uint64_t>(e.start.since_epoch().total_nanos()),
           e.packets});
      const bool icmp = e.key.type == pkt::TrafficType::IcmpEchoReq;
      if (e.day() < day) {
        if (!icmp) past_ports[{e.day(), e.key.src}].insert(e.key.dst_port);
        continue;
      }
      best[e.key.src] = std::max(best[e.key.src], e.packets);
      if (!icmp) ports[e.key.src].insert(e.key.dst_port);
      if (e.dispersion(dataset.darknet_size()) >= config.base.dispersion_threshold) {
        d1.insert(e.key.src);
      }
    }
    StreamingDayResult result;
    result.day = day;
    result.calibrated = packet_samples.size() >= config.warmup_samples;
    if (result.calibrated) {
      result.packet_threshold =
          naive_rolling_threshold(packet_samples, config.ecdf_reservoir, config.seed,
                                  config.base.packet_volume_alpha);
      std::vector<std::array<std::uint64_t, 3>> port_samples;
      for (const auto& [key, set] : past_ports) {
        port_samples.push_back({static_cast<std::uint64_t>(key.first),
                                key.second.value(), set.size()});
      }
      if (!port_samples.empty()) {
        result.port_threshold =
            naive_rolling_threshold(port_samples, config.ecdf_reservoir,
                                    port_sampler_seed(config.seed),
                                    config.base.port_count_alpha);
      }
      result.daily[0].assign(d1.begin(), d1.end());
      for (const auto& [src, packets] : best) {
        if (packets > result.packet_threshold) result.daily[1].push_back(src);
      }
      for (const auto& [src, set] : ports) {
        if (result.port_threshold > 0 && set.size() >= result.port_threshold) {
          result.daily[2].push_back(src);
        }
      }
      for (std::size_t d = 0; d < 3; ++d) {
        ips[d].insert(result.daily[d].begin(), result.daily[d].end());
      }
    }
    days.push_back(std::move(result));
  }
  return days;
}

TEST(StreamingDetector, MatchesNaiveDayCloseOracle) {
  std::size_t published = 0, withheld = 0, d3_days = 0;
  for (const std::uint64_t seed : {3u, 19u, 2024u}) {
    SCOPED_TRACE(seed);
    const telescope::EventDataset full = random_dataset(seed);
    const std::pair<const char*, telescope::EventDataset> datasets[] = {
        {"multi-day", full},
        {"empty days", only_days(full, [](std::int64_t d) { return d != 2 && d != 3; })},
    };
    for (const auto& [name, dataset] : datasets) {
      SCOPED_TRACE(name);
      const std::uint64_t mid_run =
          only_days(dataset, [](std::int64_t d) { return d <= 3; }).event_count();
      for (const std::uint64_t warmup :
           {std::uint64_t{0}, mid_run, dataset.event_count() + 1}) {
        for (const std::size_t capacity : {std::size_t{16}, std::size_t{200000}}) {
          SCOPED_TRACE(::testing::Message() << "warmup " << warmup << " capacity "
                                            << capacity);
          StreamingConfig config;
          config.base = test_config();
          config.base.packet_volume_alpha = 0.05;
          config.base.port_count_alpha = 0.1;
          config.warmup_samples = warmup;
          config.ecdf_reservoir = capacity;
          std::array<IpSet, 3> want_ips;
          const std::vector<StreamingDayResult> want =
              naive_day_close(dataset, config, want_ips);
          for (const StreamingDayResult& day : want) {
            (day.calibrated ? published : withheld) += 1;
            d3_days += day.daily[2].empty() ? 0 : 1;
          }

          StreamingDetector streaming(config, kDarknetSize);
          std::vector<StreamingDayResult> got;
          for (const telescope::DarknetEvent& e : dataset.events()) {
            for (auto& day : streaming.observe(e)) got.push_back(std::move(day));
          }
          if (auto last = streaming.finish()) got.push_back(std::move(*last));
          EXPECT_EQ(got, want);
          for (std::size_t d = 0; d < 3; ++d) {
            EXPECT_EQ(streaming.ips(static_cast<Definition>(d)), want_ips[d]);
          }

          // Random source partitions, each slice fed in shuffled order.
          net::Rng rng(seed ^ warmup ^ capacity);
          for (const std::size_t n_slices : {1u, 2u, 3u}) {
            SCOPED_TRACE(n_slices);
            std::vector<ShardDetectorSlice> slices(
                n_slices, ShardDetectorSlice(config, kDarknetSize));
            std::map<net::Ipv4Address, std::size_t> owner;
            std::vector<telescope::DarknetEvent> shuffled = dataset.events();
            for (std::size_t i = shuffled.size(); i > 1; --i) {
              std::swap(shuffled[i - 1], shuffled[rng.bounded(i)]);
            }
            for (const telescope::DarknetEvent& e : shuffled) {
              const auto [it, fresh] = owner.try_emplace(e.key.src, 0);
              if (fresh) it->second = rng.bounded(n_slices);
              slices[it->second].observe(e);
            }
            std::vector<const ShardDetectorSlice*> views;
            for (const ShardDetectorSlice& slice : slices) views.push_back(&slice);
            const MergedDetection merged = merge_shard_slices(views);
            EXPECT_EQ(merged.days, want);
            EXPECT_EQ(merged.ips, want_ips);
            EXPECT_EQ(merged.events_seen, dataset.event_count());
          }
        }
      }
    }
  }
  // The oracle must see every regime it checks.
  EXPECT_GT(published, 0u);
  EXPECT_GT(withheld, 0u);
  EXPECT_GT(d3_days, 0u);
}

}  // namespace
}  // namespace orion::detect

// NOTE: appended suite — spoofing/misconfiguration filter.
#include "orion/detect/spoof_filter.hpp"
#include "orion/scangen/noise.hpp"

namespace orion::detect {
namespace {

net::PrefixSet filter_dark_space() {
  return net::PrefixSet({*net::Prefix::parse("198.18.0.0/22")});
}

TEST(SpoofFilter, BogonDetection) {
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("10.1.2.3")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("192.168.1.1")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("127.0.0.1")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("224.0.0.5")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("255.255.255.255")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("100.64.0.1")));
  EXPECT_FALSE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("8.8.8.8")));
  EXPECT_FALSE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("203.0.113.1")));
}

TEST(SpoofFilter, FlagsBogonAndOwnSpaceSources) {
  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run(
      {
          make_event("11.1.1.1", 23, 0, 100, 100),     // clean
          make_event("192.168.0.7", 23, 0, 100, 100),  // bogon
          make_event("198.18.1.9", 23, 0, 100, 100),   // inside the darknet
      },
      stats);
  EXPECT_EQ(clean.size(), 1u);
  EXPECT_EQ(stats.clean, 1u);
  EXPECT_EQ(stats.bogon, 1u);
  EXPECT_EQ(stats.own_space, 1u);
  EXPECT_EQ(stats.total(), 3u);
}

TEST(SpoofFilter, FlagsMisconfiguration) {
  // Long-lived, chatty, single-destination event.
  auto misconfig = make_event("11.1.1.1", 443, 0, 2000, 1);
  misconfig.end = misconfig.start + net::Duration::days(2);
  // A real (short) small scan with one destination stays clean.
  const auto small_scan = make_event("11.1.1.2", 443, 0, 3, 1);
  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run({misconfig, small_scan}, stats);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_EQ(clean[0].key.src, small_scan.key.src);
  EXPECT_EQ(stats.misconfiguration, 1u);
}

TEST(SpoofFilter, FlagsSpoofedBurstsButNotScatteredSingles) {
  std::vector<telescope::DarknetEvent> events;
  // Burst: 100 distinct sources, one packet each, same port, same minute.
  for (int i = 0; i < 100; ++i) {
    auto e = make_event(
        net::Ipv4Address(0x0B000000u + static_cast<std::uint32_t>(i)).to_string().c_str(),
        8080, 0, 1, 1);
    events.push_back(e);
  }
  // Scattered singles: different ports, spread over days -> clean.
  for (int i = 0; i < 20; ++i) {
    events.push_back(make_event(
        net::Ipv4Address(0x0C000000u + static_cast<std::uint32_t>(i)).to_string().c_str(),
        static_cast<std::uint16_t>(1000 + i), i % 5, 1, 1));
  }
  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run(events, stats);
  EXPECT_EQ(stats.backscatter, 100u);
  EXPECT_EQ(clean.size(), 20u);
}

TEST(SpoofFilter, CleansSynthesizedNoiseWithoutTouchingScans) {
  // Inject generator noise into a legitimate-scan background; the filter
  // must remove nearly all noise while keeping every real scan.
  scangen::NoiseEventsConfig noise_config;
  noise_config.window_start_day = 0;
  noise_config.window_end_day = 14;
  noise_config.spoofed_bursts = 6;
  noise_config.sources_per_burst = 200;
  noise_config.misconfigured_hosts = 25;
  const auto noise = scangen::synthesize_noise_events(noise_config);

  std::vector<telescope::DarknetEvent> events;
  std::unordered_set<net::Ipv4Address> scan_sources;
  for (int s = 0; s < 300; ++s) {
    auto e = make_event(
        net::Ipv4Address(0xCB000000u + static_cast<std::uint32_t>(s)).to_string().c_str(),
        static_cast<std::uint16_t>(20 + s % 40), s % 14, 40 + s % 200,
        20 + static_cast<std::uint64_t>(s % 100));
    scan_sources.insert(e.key.src);
    events.push_back(e);
  }
  const std::size_t scan_count = events.size();
  events.insert(events.end(), noise.begin(), noise.end());

  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run(events, stats);

  // All legitimate scans survive.
  std::size_t surviving_scans = 0;
  for (const auto& e : clean) surviving_scans += scan_sources.contains(e.key.src);
  EXPECT_EQ(surviving_scans, scan_count);
  // >90% of noise events are removed.
  const double noise_removed =
      static_cast<double>(stats.bogon + stats.misconfiguration + stats.backscatter) /
      static_cast<double>(noise.size());
  EXPECT_GT(noise_removed, 0.90);
}

TEST(SpoofFilter, NoiseSourcesWouldOtherwisePolluteD3) {
  // Without the filter, a spoofed burst inflates nothing for D1/D2 (one
  // packet, one dest) but the misconfigured hosts can reach high packet
  // counts; verify the filter keeps them out of the detector's D2 set.
  scangen::NoiseEventsConfig noise_config;
  noise_config.spoofed_bursts = 2;
  noise_config.misconfigured_hosts = 30;
  const auto noise = scangen::synthesize_noise_events(noise_config);
  auto dataset_events = noise;
  for (int s = 0; s < 500; ++s) {
    dataset_events.push_back(make_event(
        net::Ipv4Address(0xCB100000u + static_cast<std::uint32_t>(s)).to_string().c_str(),
        80, s % 14, 10 + s % 20, 10));
  }

  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run(dataset_events, stats);
  const telescope::EventDataset filtered(clean, 1000);
  const DetectionResult result =
      AggressiveScannerDetector(test_config()).detect(filtered);
  for (const auto& e : noise) {
    EXPECT_FALSE(result.of(Definition::PacketVolume).ips.contains(e.key.src));
  }
}

}  // namespace
}  // namespace orion::detect

// NOTE: appended suite — daily-list diffing.
#include "orion/detect/list_diff.hpp"

namespace orion::detect {
namespace {

DailyListEntry entry(std::int64_t day, const char* ip) {
  return {day, *net::Ipv4Address::parse(ip), 1};
}

TEST(ListDiff, AddedRemovedStable) {
  const std::vector<DailyListEntry> yesterday = {
      entry(5, "1.1.1.1"), entry(5, "2.2.2.2"), entry(5, "3.3.3.3")};
  const std::vector<DailyListEntry> today = {
      entry(6, "2.2.2.2"), entry(6, "3.3.3.3"), entry(6, "4.4.4.4"),
      entry(6, "5.5.5.5")};
  const ListDiff diff = diff_daily_lists(yesterday, today);
  ASSERT_EQ(diff.added.size(), 2u);
  EXPECT_EQ(diff.added[0], *net::Ipv4Address::parse("4.4.4.4"));
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], *net::Ipv4Address::parse("1.1.1.1"));
  EXPECT_EQ(diff.stable, 2u);
  EXPECT_GT(diff.churn(), 0.0);
}

TEST(ListDiff, IdenticalListsHaveZeroChurn) {
  const std::vector<DailyListEntry> list = {entry(1, "1.1.1.1"),
                                            entry(1, "2.2.2.2")};
  const ListDiff diff = diff_daily_lists(list, list);
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_DOUBLE_EQ(diff.churn(), 0.0);
}

TEST(ListDiff, ChurnSeriesWalksConsecutiveDays) {
  std::vector<DailyListEntry> entries = {
      entry(1, "1.1.1.1"), entry(1, "2.2.2.2"),
      entry(2, "2.2.2.2"), entry(2, "3.3.3.3"),
      entry(4, "3.3.3.3"),  // day 3 missing: diff is day2 -> day4
  };
  const auto series = churn_series(entries);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].first, 2);
  EXPECT_EQ(series[0].second.added.size(), 1u);
  EXPECT_EQ(series[0].second.removed.size(), 1u);
  EXPECT_EQ(series[1].first, 4);
  EXPECT_EQ(series[1].second.stable, 1u);
}

// ------------------------------------------------------------------ PortSet

// Model check across the small-vector -> bitmap promotion boundary: the
// flat set must agree with std::set<uint16_t> on every operation.
TEST(PortSet, AgreesWithSetModelAcrossPromotion) {
  PortSet flat;
  std::set<std::uint16_t> model;
  net::Rng rng(4);
  for (int step = 0; step < 4000; ++step) {
    const auto port = static_cast<std::uint16_t>(rng.bounded(200));
    EXPECT_EQ(flat.insert(port), model.insert(port).second);
    ASSERT_EQ(flat.size(), model.size());
  }
  for (std::uint16_t p = 0; p < 200; ++p) {
    EXPECT_EQ(flat.contains(p), model.count(p) > 0);
  }
  // for_each must visit in ascending order, same as the model.
  std::vector<std::uint16_t> visited;
  flat.for_each([&](std::uint16_t p) { visited.push_back(p); });
  EXPECT_EQ(visited, std::vector<std::uint16_t>(model.begin(), model.end()));
}

TEST(PortSet, SmallSetsStayInline) {
  PortSet set;
  for (std::uint16_t p : {80, 443, 22, 8080, 80, 443}) set.insert(p);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.contains(22));
  EXPECT_FALSE(set.contains(23));
  std::vector<std::uint16_t> visited;
  set.for_each([&](std::uint16_t p) { visited.push_back(p); });
  EXPECT_EQ(visited, (std::vector<std::uint16_t>{22, 80, 443, 8080}));
}

TEST(PortSet, CopiesAreIndependent) {
  PortSet a;
  for (std::uint16_t p = 0; p < 100; ++p) a.insert(p);  // promoted to bitmap
  PortSet b = a;
  EXPECT_EQ(a, b);
  b.insert(60000);
  EXPECT_NE(a, b);
  EXPECT_FALSE(a.contains(60000));
  EXPECT_TRUE(b.contains(60000));
  EXPECT_EQ(b.size(), 101u);
}

TEST(PortSet, HandlesExtremePortValues) {
  PortSet set;
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(65535));
  EXPECT_FALSE(set.insert(65535));
  for (std::uint16_t p = 1; p <= 30; ++p) set.insert(p);  // force promotion
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(65535));
  EXPECT_EQ(set.size(), 32u);
}

}  // namespace
}  // namespace orion::detect
