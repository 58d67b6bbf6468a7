#include "orion/scangen/ports.hpp"

#include <algorithm>
#include <stdexcept>

namespace orion::scangen {

namespace {

using pkt::TrafficType;

std::vector<WeightedPort> build_service_catalog(int year) {
  // Shared core (20 ports present in both years' top-25, Figure 4).
  std::vector<WeightedPort> catalog = {
      {6379, TrafficType::TcpSyn, 20.0},   // Redis — top ranked (cryptojacking)
      {23, TrafficType::TcpSyn, 17.0},     // Telnet — IoT botnets
      {22, TrafficType::TcpSyn, 12.0},     // SSH — 3rd both years
      {80, TrafficType::TcpSyn, 9.0},      // HTTP
      {443, TrafficType::TcpSyn, 8.0},     // HTTPS
      {3389, TrafficType::TcpSyn, 6.0},    // RDP
      {8080, TrafficType::TcpSyn, 5.0},    // HTTP alt
      {5555, TrafficType::TcpSyn, 4.5},    // Android ADB
      {2323, TrafficType::TcpSyn, 4.0},    // Telnet alt
      {8443, TrafficType::TcpSyn, 3.2},    // HTTPS alt
      {81, TrafficType::TcpSyn, 3.0},      // HTTP alt (IoT)
      {1023, TrafficType::TcpSyn, 2.6},    // telnetd variants
      {37215, TrafficType::TcpSyn, 2.4},   // Huawei HG532 RCE
      {52869, TrafficType::TcpSyn, 2.2},   // Realtek UPnP RCE
      {1433, TrafficType::TcpSyn, 2.0},    // MSSQL
      {3306, TrafficType::TcpSyn, 1.8},    // MySQL
      {8888, TrafficType::TcpSyn, 1.6},    // HTTP alt
      {5060, TrafficType::Udp, 3.4},       // SIP
      {53, TrafficType::Udp, 2.2},         // DNS
      {123, TrafficType::Udp, 1.8},        // NTP
      {161, TrafficType::Udp, 1.2},        // SNMP
      {kIcmpPort, TrafficType::IcmpEchoReq, 1.6},  // ICMP echo completes top-25
  };
  if (year <= 2021) {
    catalog.push_back({8291, TrafficType::TcpSyn, 1.5});   // MikroTik
    catalog.push_back({60001, TrafficType::TcpSyn, 1.3});  // Jaws webserver
    catalog.push_back({34567, TrafficType::TcpSyn, 1.1});  // DVR
    catalog.push_back({9530, TrafficType::TcpSyn, 0.9});   // Xiongmai backdoor
    catalog.push_back({49152, TrafficType::TcpSyn, 0.8});
  } else {
    catalog.push_back({10250, TrafficType::TcpSyn, 1.5});  // kubelet
    catalog.push_back({2375, TrafficType::TcpSyn, 1.3});   // Docker API
    catalog.push_back({9200, TrafficType::TcpSyn, 1.1});   // Elasticsearch
    catalog.push_back({7547, TrafficType::TcpSyn, 0.9});   // TR-064 CPE
    catalog.push_back({50050, TrafficType::TcpSyn, 0.8});  // Cobalt Strike
  }
  return catalog;
}

}  // namespace

const std::vector<WeightedPort>& service_catalog(int year) {
  static const std::vector<WeightedPort> catalog_2021 = build_service_catalog(2021);
  static const std::vector<WeightedPort> catalog_2022 = build_service_catalog(2022);
  return year <= 2021 ? catalog_2021 : catalog_2022;
}

const std::vector<WeightedPort>& botnet_catalog() {
  static const std::vector<WeightedPort> catalog = {
      {23, pkt::TrafficType::TcpSyn, 42.0},    {2323, pkt::TrafficType::TcpSyn, 12.0},
      {5555, pkt::TrafficType::TcpSyn, 8.0},   {37215, pkt::TrafficType::TcpSyn, 6.0},
      {52869, pkt::TrafficType::TcpSyn, 5.0},  {81, pkt::TrafficType::TcpSyn, 5.0},
      {8080, pkt::TrafficType::TcpSyn, 4.0},   {1023, pkt::TrafficType::TcpSyn, 4.0},
      {60001, pkt::TrafficType::TcpSyn, 3.0},  {34567, pkt::TrafficType::TcpSyn, 2.0},
      {6379, pkt::TrafficType::TcpSyn, 9.0},
  };
  return catalog;
}

const std::vector<WeightedPort>& bruteforce_catalog() {
  static const std::vector<WeightedPort> catalog = {
      {22, pkt::TrafficType::TcpSyn, 40.0},   {3389, pkt::TrafficType::TcpSyn, 22.0},
      {23, pkt::TrafficType::TcpSyn, 14.0},   {21, pkt::TrafficType::TcpSyn, 8.0},
      {5900, pkt::TrafficType::TcpSyn, 7.0},  {6379, pkt::TrafficType::TcpSyn, 9.0},
  };
  return catalog;
}

const std::vector<WeightedPort>& small_scan_catalog() {
  // TCP/445 dominates small scans (as in Durumeric et al. / Richter et al.)
  // but must stay OUT of the AH top-25.
  static const std::vector<WeightedPort> catalog = {
      {445, pkt::TrafficType::TcpSyn, 30.0},  {139, pkt::TrafficType::TcpSyn, 8.0},
      {135, pkt::TrafficType::TcpSyn, 7.0},   {1433, pkt::TrafficType::TcpSyn, 6.0},
      {3306, pkt::TrafficType::TcpSyn, 5.0},  {22, pkt::TrafficType::TcpSyn, 8.0},
      {23, pkt::TrafficType::TcpSyn, 7.0},    {80, pkt::TrafficType::TcpSyn, 6.0},
      {8080, pkt::TrafficType::TcpSyn, 4.0},  {443, pkt::TrafficType::TcpSyn, 4.0},
      {3389, pkt::TrafficType::TcpSyn, 5.0},  {5060, pkt::TrafficType::Udp, 3.0},
      {1900, pkt::TrafficType::Udp, 2.0},     {53, pkt::TrafficType::Udp, 2.0},
      {kIcmpPort, pkt::TrafficType::IcmpEchoReq, 3.0},
  };
  return catalog;
}

WeightedPort pick_port(const std::vector<WeightedPort>& catalog, net::Rng& rng) {
  if (catalog.empty()) throw std::invalid_argument("pick_port: empty catalog");
  double total = 0;
  for (const WeightedPort& p : catalog) total += p.weight;
  double u = rng.uniform() * total;
  for (const WeightedPort& p : catalog) {
    u -= p.weight;
    if (u <= 0) return p;
  }
  return catalog.back();
}

std::vector<PortSpec> pick_distinct_ports(const std::vector<WeightedPort>& catalog,
                                          std::size_t count, net::Rng& rng) {
  std::vector<PortSpec> out;
  if (count >= catalog.size()) {
    out.reserve(catalog.size());
    for (const WeightedPort& p : catalog) out.push_back({p.port, p.type});
    return out;
  }
  // Weighted sampling without replacement by repeated weighted draws over
  // the untaken remainder (catalogs are small, O(count * size) is fine).
  // Skipping taken entries visits the remainder in catalog order, so the
  // weight sums and the chosen entry are exactly those of drawing from a
  // copy of the catalog and erasing each pick.
  std::vector<bool> taken(catalog.size(), false);
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    double total = 0;
    std::size_t last = 0;
    for (std::size_t j = 0; j < catalog.size(); ++j) {
      if (taken[j]) continue;
      total += catalog[j].weight;
      last = j;
    }
    double u = rng.uniform() * total;
    std::size_t chosen = last;
    for (std::size_t j = 0; j < catalog.size(); ++j) {
      if (taken[j]) continue;
      u -= catalog[j].weight;
      if (u <= 0) {
        chosen = j;
        break;
      }
    }
    taken[chosen] = true;
    out.push_back({catalog[chosen].port, catalog[chosen].type});
  }
  return out;
}

}  // namespace orion::scangen
