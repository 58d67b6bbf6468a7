// Scanner population builder: produces the full set of scanner profiles
// for one longitudinal dataset (a "Darknet-1"/"Darknet-2" year), with a
// composition calibrated to the paper's findings:
//   * origins dominated by one US cloud provider, then CN ISPs/clouds/
//     hosting, TW/KR ISPs (Table 5),
//   * ~30 disclosed research orgs contributing ~20-25% of AH packets
//     (Table 6),
//   * a Mirai-heavy botnet mass (Table 9),
//   * a small Definition-3 port-sweeper population,
//   * a large sub-threshold "small scanner" background.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "orion/asdb/registry.hpp"
#include "orion/scangen/profile.hpp"

namespace orion::scangen {

/// A disclosed research scanning organization (ground truth; the
/// Acknowledged-Scanners list in `intel` is a deliberately partial view).
struct ResearchOrg {
  std::string name;        // e.g. "netcensus"
  std::string domain;      // rDNS suffix, e.g. "netcensus.example.org"
  std::string keyword;     // the matchable keyword, e.g. "netcensus"
  std::uint32_t asn = 0;
  std::vector<net::Ipv4Address> ips;
  /// ips[0..core_ip_count) are the org's dedicated scanner fleet (stable
  /// across years); later entries are affiliated machines (port sweepers).
  std::size_t core_ip_count = 0;
  bool active = true;  // a few listed orgs never scan hard enough to be AH
};

struct PopulationConfig {
  std::uint64_t seed = 42;
  int year = 2022;
  std::int64_t window_start_day = 0;  // inclusive
  std::int64_t window_end_day = 365;  // exclusive

  // Category sizes (per dataset).
  std::size_t acked_org_count = 36;
  std::size_t acked_active_org_count = 30;
  std::size_t acked_ip_count = 150;
  std::size_t cloud_scanner_count = 700;
  std::size_t botnet_count = 620;
  std::size_t bruteforcer_count = 160;
  std::size_t port_sweeper_count = 60;
  std::size_t small_scanner_count = 60000;

  // Activity intensity multipliers (calibration knobs).
  double acked_sweeps_per_year = 26.0;
  double cloud_sessions_per_year = 14.0;
  double botnet_sessions_per_year = 8.0;
  double bruteforce_sessions_per_year = 14.0;
  double sweeper_sessions_per_year = 5.0;
  double small_sessions_per_year = 2.0;
  /// Mean distinct ports per port-sweeper session (lognormal-ish spread);
  /// the paper's D3 threshold shifted ~9x from 2021 to 2022.
  double sweep_ports_mean = 700.0;
  /// Per-port address coverage of sweep sessions (uniform in [lo, hi]).
  /// Small darknets need higher coverage for sweep ports to land at all.
  double sweeper_coverage_lo = 5e-5;
  double sweeper_coverage_hi = 3e-4;
  /// Small-scanner coverage mixture: `small_medium_share` of sessions draw
  /// coverage from the "medium" band [2e-3, small_medium_cov_hi], the rest
  /// from the tiny band [2e-5, 2e-3]. Shapes the packet-ECDF tail around
  /// the Definition-2 threshold.
  double small_medium_share = 0.3;
  double small_medium_cov_hi = 0.08;
  /// Linear growth of session starts across the window (1.0 = 2x rate at
  /// window end vs start) — "the number of aggressive scanners increases
  /// over time" (Fig 3).
  double growth = 0.6;
  /// Probability (per year) that an ISP-hosted scanner re-addresses mid-
  /// window (DHCP churn, [50] / footnote 3): its later sessions move to a
  /// fresh IP in the same AS, which is what makes day-old blocklists decay.
  /// Cloud-hosted scanners keep stable addresses.
  double dhcp_churn_per_year = 0.35;
};

struct Population {
  std::vector<ScannerProfile> scanners;
  std::vector<ResearchOrg> orgs;
  PopulationConfig config;

  std::size_t count(Category c) const;
};

/// Key origin ASes reused across datasets so both years' Table 5 rank the
/// same organizations (e.g. THE US mega-cloud that tops every definition).
struct KeyOrigins {
  const asdb::AsRecord* mega_cloud_us = nullptr;
  const asdb::AsRecord* cloud_us_2 = nullptr;
  const asdb::AsRecord* cloud_us_3 = nullptr;
  const asdb::AsRecord* cloud_cn = nullptr;
  const asdb::AsRecord* isp_cn_1 = nullptr;
  const asdb::AsRecord* isp_cn_2 = nullptr;
  const asdb::AsRecord* hosting_cn = nullptr;
  const asdb::AsRecord* isp_tw = nullptr;
  const asdb::AsRecord* isp_kr = nullptr;
  const asdb::AsRecord* isp_ru = nullptr;

  static KeyOrigins select(const asdb::Registry& registry);
};

/// Builds the population deterministically from config.seed. When
/// `reuse_orgs` is given (the previous year's orgs), the research
/// organizations keep their names, ASes and core scanner IPs — research
/// fleets are stable across years, which is what makes the published
/// Acknowledged-Scanners IP lists useful year over year (Table 6).
Population build_population(const PopulationConfig& config,
                            const asdb::Registry& registry,
                            const KeyOrigins& origins,
                            const std::vector<ResearchOrg>* reuse_orgs = nullptr);

/// The research orgs of build_population(config, registry, origins) with
/// only their core scanner IPs: everything a `reuse_orgs` build reads
/// from the previous year (names, ASN, `active`, `core_ip_count` and
/// `ips[0..core_ip_count)`), at a fraction of a full build's cost, so the
/// next year can be built while this one still is.
std::vector<ResearchOrg> build_research_orgs(const PopulationConfig& config,
                                             const asdb::Registry& registry,
                                             const KeyOrigins& origins);

}  // namespace orion::scangen
