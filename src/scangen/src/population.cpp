#include "orion/scangen/population.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "orion/netbase/flat_map.hpp"
#include "orion/scangen/ports.hpp"

namespace orion::scangen {

namespace {

using asdb::AsRecord;
using asdb::AsType;

/// Picks the N-th largest AS (by address count) matching type+country —
/// deterministic, so both datasets elect the same key origins.
const AsRecord* nth_largest(const asdb::Registry& registry, AsType type,
                            const std::string& country, std::size_t n) {
  auto candidates = registry.filter(type, country);
  std::sort(candidates.begin(), candidates.end(),
            [](const AsRecord* a, const AsRecord* b) {
              if (a->address_count() != b->address_count()) {
                return a->address_count() > b->address_count();
              }
              return a->asn < b->asn;
            });
  if (n >= candidates.size()) return nullptr;
  return candidates[n];
}

/// Weighted choice among key-origin slots; nullptr entries fall through to
/// a uniform random AS of the fallback type.
struct OriginSlot {
  const AsRecord* as = nullptr;
  double weight = 0;
};

const AsRecord* pick_origin(const std::vector<OriginSlot>& slots,
                            const std::vector<const AsRecord*>& fallback,
                            net::Rng& rng) {
  // Slot weights are absolute probabilities; the remaining mass falls
  // through to a uniform draw over the fallback pool.
  double u = rng.uniform();
  for (const OriginSlot& s : slots) {
    u -= s.weight;
    if (u <= 0 && s.as != nullptr) return s.as;
    if (u <= 0) break;
  }
  if (fallback.empty()) throw std::logic_error("pick_origin: no fallback ASes");
  return fallback[rng.bounded(fallback.size())];
}

}  // namespace

std::size_t Population::count(Category c) const {
  return static_cast<std::size_t>(
      std::count_if(scanners.begin(), scanners.end(),
                    [c](const ScannerProfile& s) { return s.category == c; }));
}

KeyOrigins KeyOrigins::select(const asdb::Registry& registry) {
  KeyOrigins k;
  k.mega_cloud_us = nth_largest(registry, AsType::Cloud, "US", 0);
  k.cloud_us_2 = nth_largest(registry, AsType::Cloud, "US", 1);
  k.cloud_us_3 = nth_largest(registry, AsType::Cloud, "US", 2);
  k.cloud_cn = nth_largest(registry, AsType::Cloud, "CN", 0);
  k.isp_cn_1 = nth_largest(registry, AsType::Isp, "CN", 0);
  k.isp_cn_2 = nth_largest(registry, AsType::Isp, "CN", 1);
  k.hosting_cn = nth_largest(registry, AsType::Hosting, "CN", 0);
  k.isp_tw = nth_largest(registry, AsType::Isp, "TW", 0);
  k.isp_kr = nth_largest(registry, AsType::Isp, "KR", 0);
  k.isp_ru = nth_largest(registry, AsType::Isp, "RU", 0);
  if (!k.mega_cloud_us || !k.isp_cn_1) {
    throw std::runtime_error(
        "KeyOrigins::select: registry lacks US clouds / CN ISPs — increase "
        "AS counts in RegistryConfig");
  }
  return k;
}

namespace {

class Builder {
 public:
  Builder(const PopulationConfig& config, const asdb::Registry& registry,
          const KeyOrigins& origins, const std::vector<ResearchOrg>* reuse_orgs)
      : config_(config),
        registry_(registry),
        origins_(origins),
        reuse_orgs_(reuse_orgs),
        rng_(config.seed),
        window_days_(config.window_end_day - config.window_start_day),
        year_scale_(static_cast<double>(window_days_) / 365.0) {
    all_clouds_ = registry.filter(AsType::Cloud);
    all_isps_ = registry.filter(AsType::Isp);
    all_hosting_ = registry.filter(AsType::Hosting);
    all_edu_ = registry.filter(AsType::Education);
    all_any_.insert(all_any_.end(), all_clouds_.begin(), all_clouds_.end());
    all_any_.insert(all_any_.end(), all_isps_.begin(), all_isps_.end());
    all_any_.insert(all_any_.end(), all_hosting_.begin(), all_hosting_.end());
    all_any_.insert(all_any_.end(), all_edu_.begin(), all_edu_.end());
  }

  Population build() {
    const std::size_t estimate = scanner_estimate();
    scanners_.reserve(estimate);
    used_ips_.reserve(estimate);
    build_research_orgs();
    build_cloud_scanners();
    build_botnet();
    build_bruteforcers();
    build_port_sweepers();
    build_small_scanners();
    Population pop;
    pop.scanners = std::move(scanners_);
    pop.orgs = std::move(orgs_);
    pop.config = config_;
    return pop;
  }

  /// The research-org phase alone: it runs first and draws first, so its
  /// orgs are exactly build()'s before the port sweepers append their
  /// affiliated IPs.
  std::vector<ResearchOrg> build_orgs_only() {
    build_research_orgs();
    return std::move(orgs_);
  }

 private:
  /// Capacity hint for scanners_ and used_ips_: every configured scanner,
  /// research orgs rounded up to their two-IP minimum, and one DHCP-churn
  /// sibling per ISP-hosted scanner.
  std::size_t scanner_estimate() const {
    std::size_t research = config_.acked_ip_count + 2 * config_.acked_org_count;
    if (reuse_orgs_ != nullptr) {
      research = 0;
      for (const ResearchOrg& org : *reuse_orgs_) research += org.core_ip_count;
    }
    return research + config_.cloud_scanner_count + 2 * config_.botnet_count +
           2 * config_.bruteforcer_count + config_.port_sweeper_count +
           config_.small_scanner_count;
  }

  // --- primitive samplers -------------------------------------------------

  /// Session start day under the linear-growth weighting.
  std::int64_t sample_day() {
    const double g = config_.growth;
    for (;;) {
      const auto d = static_cast<std::int64_t>(
          rng_.bounded(static_cast<std::uint64_t>(window_days_)));
      const double w =
          1.0 + g * static_cast<double>(d) / static_cast<double>(window_days_);
      if (rng_.uniform() * (1.0 + g) <= w) return config_.window_start_day + d;
    }
  }

  net::SimTime sample_start(std::int64_t day) {
    return net::SimTime::at(net::Duration::days(day) +
                            net::Duration::seconds(static_cast<std::int64_t>(
                                rng_.bounded(86400))));
  }

  double uniform_in(double lo, double hi) {
    return lo + rng_.uniform() * (hi - lo);
  }

  net::Ipv4Address fresh_address(const AsRecord& as) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const net::Ipv4Address a = registry_.random_address_in_as(as, rng_);
      if (used_ips_.try_emplace(a).second) return a;
    }
    throw std::runtime_error("Builder: AS address space exhausted: " + as.org);
  }

  ScannerProfile& new_scanner_at(net::Ipv4Address source, Category category,
                                 pkt::ScanTool tool) {
    used_ips_.try_emplace(source);
    ScannerProfile profile;
    profile.source = source;
    profile.category = category;
    profile.tool = tool;
    profile.rng_stream = next_stream_++;
    scanners_.push_back(std::move(profile));
    return scanners_.back();
  }

  ScannerProfile& new_scanner(const AsRecord& as, Category category,
                              pkt::ScanTool tool) {
    ScannerProfile profile;
    profile.source = fresh_address(as);
    profile.category = category;
    profile.tool = tool;
    profile.rng_stream = next_stream_++;
    scanners_.push_back(std::move(profile));
    return scanners_.back();
  }

  void finish_scanner(ScannerProfile& s) {
    std::sort(s.sessions.begin(), s.sessions.end(),
              [](const SessionSpec& a, const SessionSpec& b) {
                return a.start < b.start;
              });
  }

  /// DHCP churn: with the configured per-year probability, an ISP-hosted
  /// scanner re-addresses at a uniform point of the window; its sessions
  /// from that instant onward move to a sibling profile with a fresh IP
  /// in the same AS. Call AFTER finish_scanner (sessions sorted). The
  /// reference `index` (not a pointer) survives the push_back.
  void maybe_churn(std::size_t index, const AsRecord& as) {
    const double window_probability = config_.dhcp_churn_per_year * year_scale_;
    if (!rng_.chance(std::min(0.9, window_probability))) return;
    if (scanners_[index].sessions.size() < 2) return;
    const net::SimTime churn_instant = sample_start(sample_day());

    ScannerProfile sibling;
    sibling.source = fresh_address(as);
    sibling.category = scanners_[index].category;
    sibling.tool = scanners_[index].tool;
    sibling.rng_stream = next_stream_++;

    auto& sessions = scanners_[index].sessions;
    const auto split = std::partition_point(
        sessions.begin(), sessions.end(),
        [&](const SessionSpec& spec) { return spec.start < churn_instant; });
    if (split == sessions.begin() || split == sessions.end()) return;
    sibling.sessions.assign(split, sessions.end());
    sessions.erase(split, sessions.end());
    scanners_.push_back(std::move(sibling));
  }

  std::size_t poisson_at_least(double mean, std::size_t minimum) {
    const std::uint64_t n = rng_.poisson(mean);
    return std::max<std::size_t>(minimum, static_cast<std::size_t>(n));
  }

  /// Per-scanner activity multipliers: Pareto(alpha) capped and normalized
  /// to mean 1, so the category's total activity budget is unchanged but
  /// its per-IP contribution is heavy-tailed (Figure 6 right: the top 1%
  /// of AH carry >25% of AH traffic).
  std::vector<double> heavy_multipliers(std::size_t n, double alpha = 1.15,
                                        double cap = 100.0) {
    std::vector<double> multipliers(n);
    double sum = 0;
    for (double& m : multipliers) {
      m = std::min(cap, std::pow(1.0 - rng_.uniform(), -1.0 / alpha));
      sum += m;
    }
    if (sum > 0) {
      for (double& m : multipliers) m *= static_cast<double>(n) / sum;
    }
    return multipliers;
  }

  // --- research orgs (ACKed population) ------------------------------------

  /// Research-org session behaviour, shared by fresh and reused builds.
  void add_research_sessions(ScannerProfile& s, bool active) {
    if (!active) {
      add_sessions(s, 2.0, [&](SessionSpec& spec) {
        spec.coverage = uniform_in(0.001, 0.02);
        spec.duration = net::Duration::minutes(
            static_cast<std::int64_t>(uniform_in(10, 120)));
        spec.ports = pick_distinct_ports(service_catalog(config_.year), 1, rng_);
      });
    } else {
      add_sessions(s, config_.acked_sweeps_per_year, [&](SessionSpec& spec) {
        spec.coverage = 1.0;
        spec.duration =
            net::Duration::hours(static_cast<std::int64_t>(uniform_in(2, 9)));
        spec.ports = pick_distinct_ports(
            service_catalog(config_.year), rng_.chance(0.25) ? 2 : 1, rng_);
      });
    }
    finish_scanner(s);
  }

  /// Rebuilds last year's orgs with the same names, ASes and core IPs.
  void reuse_research_orgs() {
    for (const ResearchOrg& prev : *reuse_orgs_) {
      ResearchOrg org;
      org.name = prev.name;
      org.keyword = prev.keyword;
      org.domain = prev.domain;
      org.asn = prev.asn;
      org.active = prev.active;
      org.core_ip_count = prev.core_ip_count;
      const pkt::ScanTool tool =
          rng_.chance(0.6) ? pkt::ScanTool::ZMap : pkt::ScanTool::Masscan;
      for (std::size_t j = 0; j < prev.core_ip_count && j < prev.ips.size(); ++j) {
        ScannerProfile& s =
            new_scanner_at(prev.ips[j], Category::AckedResearch, tool);
        s.org = org.name;
        org.ips.push_back(s.source);
        add_research_sessions(s, org.active);
      }
      orgs_.push_back(std::move(org));
    }
  }

  void build_research_orgs() {
    if (reuse_orgs_ != nullptr) {
      reuse_research_orgs();
      return;
    }
    static constexpr std::array<const char*, 10> kPrefixes = {
        "net", "cyber", "web", "inet", "global",
        "rapid", "open", "deep", "meta", "port"};
    static constexpr std::array<const char*, 10> kSuffixes = {
        "census", "scan", "research", "survey", "probe",
        "metrics", "recon", "scope", "audit", "watch"};

    // Org sizes: a few large orgs own most research IPs (as in [9]).
    std::vector<std::size_t> sizes(config_.acked_org_count, 0);
    double weight_total = 0;
    std::vector<double> weights(config_.acked_org_count);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i] = 1.0 / static_cast<double>(i + 1);
      weight_total += weights[i];
    }
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      sizes[i] = std::max<std::size_t>(
          2, static_cast<std::size_t>(std::floor(
                 static_cast<double>(config_.acked_ip_count) * weights[i] /
                 weight_total)));
      assigned += sizes[i];
    }
    while (assigned < config_.acked_ip_count) {
      ++sizes[assigned % sizes.size()];
      ++assigned;
    }

    for (std::size_t i = 0; i < config_.acked_org_count; ++i) {
      ResearchOrg org;
      org.name = std::string(kPrefixes[i % kPrefixes.size()]) +
                 kSuffixes[(i / kPrefixes.size() + i) % kSuffixes.size()] +
                 (i >= 20 ? std::to_string(i) : "");
      org.keyword = org.name;
      org.domain = org.name + ".example.org";
      org.active = i < config_.acked_active_org_count;

      // Research orgs live in US clouds (the paper's mega cloud hosts most
      // ACKed scanners — Table 5 parentheses) or academic ASes.
      const double u = rng_.uniform();
      const AsRecord* as = u < 0.55  ? origins_.mega_cloud_us
                           : u < 0.7 ? origins_.cloud_us_2
                           : u < 0.8 ? origins_.cloud_us_3
                                     : all_edu_[rng_.bounded(all_edu_.size())];
      if (as == nullptr) as = origins_.mega_cloud_us;
      org.asn = as->asn;

      const pkt::ScanTool tool =
          rng_.chance(0.6) ? pkt::ScanTool::ZMap : pkt::ScanTool::Masscan;
      for (std::size_t j = 0; j < sizes[i]; ++j) {
        ScannerProfile& s = new_scanner(*as, Category::AckedResearch, tool);
        s.org = org.name;
        org.ips.push_back(s.source);
        add_research_sessions(s, org.active);
      }
      org.core_ip_count = org.ips.size();
      orgs_.push_back(std::move(org));
    }
  }

  // --- undisclosed cloud scanners ------------------------------------------

  void build_cloud_scanners() {
    const std::vector<OriginSlot> slots = {
        {origins_.mega_cloud_us, 0.28}, {origins_.cloud_cn, 0.09},
        {origins_.hosting_cn, 0.07},    {origins_.cloud_us_2, 0.05},
        {origins_.cloud_us_3, 0.04},
    };
    const std::vector<double> intensity =
        heavy_multipliers(config_.cloud_scanner_count);
    for (std::size_t i = 0; i < config_.cloud_scanner_count; ++i) {
      const AsRecord* as = pick_origin(slots, all_clouds_, rng_);
      const double u = rng_.uniform();
      const pkt::ScanTool tool = u < 0.40   ? pkt::ScanTool::Masscan
                                 : u < 0.70 ? pkt::ScanTool::ZMap
                                            : pkt::ScanTool::Other;
      ScannerProfile& s = new_scanner(*as, Category::CloudScanner, tool);
      // Scanner styles keep Definitions 1 and 2 correlated-but-distinct
      // (the paper's Jaccard 0.8): "borderline" scanners disperse just
      // past the 10% rule but stay under the packet-volume tail (D1-only);
      // "repeaters" re-probe a sub-10% subset hard (D2-only).
      const double style = rng_.uniform();
      const bool borderline = style < 0.20;
      const bool repeater = !borderline && style < 0.38;
      add_sessions(s, config_.cloud_sessions_per_year * intensity[i],
                   [&](SessionSpec& spec) {
        if (borderline) {
          spec.coverage = uniform_in(0.10, 0.145);
          spec.repeats = 1;
        } else if (repeater) {
          spec.coverage = uniform_in(0.05, 0.095);
          spec.repeats = 2 + static_cast<int>(rng_.bounded(2));
        } else {
          const double v = rng_.uniform();
          spec.coverage = v < 0.70   ? uniform_in(0.16, 1.0)
                          : v < 0.90 ? uniform_in(0.03, 0.12)
                                     : 1.0;
          spec.repeats = rng_.chance(0.3) ? 2 : 1;
        }
        if (!borderline && !repeater && rng_.chance(0.10)) {
          // Burst sweeps: a Masscan-at-full-rate style blast that finishes
          // in minutes — the source of the 7-12% instantaneous impact
          // spikes in Figure 1.
          spec.coverage = uniform_in(0.6, 1.0);
          spec.duration = net::Duration::minutes(
              static_cast<std::int64_t>(uniform_in(8, 25)));
        } else {
          spec.duration =
              net::Duration::hours(static_cast<std::int64_t>(uniform_in(12, 90)));
        }
        spec.ports = pick_distinct_ports(service_catalog(config_.year),
                                         1 + rng_.bounded(3), rng_);
      });
      finish_scanner(s);
    }
  }

  // --- botnet propagation ---------------------------------------------------

  void build_botnet() {
    // 2022 sees the KR ISP enter the top origins (Table 5).
    const double kr_weight = config_.year >= 2022 ? 0.12 : 0.02;
    const std::vector<OriginSlot> slots = {
        {origins_.isp_cn_1, 0.17}, {origins_.isp_cn_2, 0.11},
        {origins_.isp_tw, 0.07},   {origins_.isp_kr, kr_weight},
        {origins_.isp_ru, 0.04},   {origins_.hosting_cn, 0.05},
    };
    const std::vector<double> intensity = heavy_multipliers(config_.botnet_count);
    for (std::size_t i = 0; i < config_.botnet_count; ++i) {
      const AsRecord* as = pick_origin(slots, all_isps_, rng_);
      const pkt::ScanTool tool =
          rng_.chance(0.8) ? pkt::ScanTool::Mirai : pkt::ScanTool::Other;
      ScannerProfile& s = new_scanner(*as, Category::Botnet, tool);
      add_sessions(s, config_.botnet_sessions_per_year * intensity[i],
                   [&](SessionSpec& spec) {
        spec.coverage = uniform_in(0.15, 0.95);
        spec.duration =
            net::Duration::hours(static_cast<std::int64_t>(uniform_in(48, 430)));
        spec.repeats = rng_.chance(0.4) ? 2 : 1;
        spec.ports =
            pick_distinct_ports(botnet_catalog(), rng_.chance(0.3) ? 2 : 1, rng_);
      });
      finish_scanner(s);
      maybe_churn(scanners_.size() - 1, *as);
    }
  }

  // --- credential bruteforcers ----------------------------------------------

  void build_bruteforcers() {
    const std::vector<double> intensity =
        heavy_multipliers(config_.bruteforcer_count);
    for (std::size_t i = 0; i < config_.bruteforcer_count; ++i) {
      const AsRecord* as = rng_.chance(0.5)
                               ? all_isps_[rng_.bounded(all_isps_.size())]
                               : all_hosting_[rng_.bounded(all_hosting_.size())];
      ScannerProfile& s =
          new_scanner(*as, Category::Bruteforcer, pkt::ScanTool::Other);
      add_sessions(s, config_.bruteforce_sessions_per_year * intensity[i],
                   [&](SessionSpec& spec) {
        spec.coverage = uniform_in(0.10, 0.45);
        spec.duration =
            net::Duration::hours(static_cast<std::int64_t>(uniform_in(24, 120)));
        spec.ports = pick_distinct_ports(bruteforce_catalog(), 1, rng_);
      });
      finish_scanner(s);
      maybe_churn(scanners_.size() - 1, *as);
    }
  }

  // --- Definition-3 port sweepers --------------------------------------------

  void build_port_sweepers() {
    for (std::size_t i = 0; i < config_.port_sweeper_count; ++i) {
      // A slice of the port sweepers belongs to the disclosed research
      // orgs — the paper sees research institutions among D3 origins and
      // ACKed matches in Table 6's D3 columns.
      ResearchOrg* research_org = nullptr;
      if (!orgs_.empty() && rng_.chance(0.18)) {
        research_org = &orgs_[rng_.bounded(orgs_.size())];
      }
      const double u = rng_.uniform();
      const AsRecord* as =
          research_org ? registry_.find_asn(research_org->asn)
          : u < 0.4    ? all_edu_[rng_.bounded(all_edu_.size())]
          : u < 0.8    ? all_clouds_[rng_.bounded(all_clouds_.size())]
                       : origins_.mega_cloud_us;
      if (as == nullptr) as = all_edu_[rng_.bounded(all_edu_.size())];
      const pkt::ScanTool tool =
          rng_.chance(0.3) ? pkt::ScanTool::ZMap : pkt::ScanTool::Other;
      ScannerProfile& s = new_scanner(*as, Category::PortSweeper, tool);
      if (research_org != nullptr) {
        s.org = research_org->name;
        research_org->ips.push_back(s.source);
      }
      add_sessions(s, config_.sweeper_sessions_per_year, [&](SessionSpec& spec) {
        spec.coverage =
            uniform_in(config_.sweeper_coverage_lo, config_.sweeper_coverage_hi);
        spec.duration =
            net::Duration::hours(static_cast<std::int64_t>(uniform_in(10, 24)));
        // Lognormal port count around the configured mean.
        const double sigma = 0.6;
        const double mu = std::log(config_.sweep_ports_mean) - 0.5 * sigma * sigma;
        spec.sweep_port_count = static_cast<std::uint32_t>(
            std::max(50.0, std::exp(rng_.normal(mu, sigma))));
      });
      finish_scanner(s);
    }
  }

  // --- sub-threshold background scanners --------------------------------------

  void build_small_scanners() {
    for (std::size_t i = 0; i < config_.small_scanner_count; ++i) {
      const AsRecord* as = all_any_[rng_.bounded(all_any_.size())];
      const double u = rng_.uniform();
      const pkt::ScanTool tool = u < 0.90   ? pkt::ScanTool::Other
                                 : u < 0.93 ? pkt::ScanTool::ZMap
                                 : u < 0.96 ? pkt::ScanTool::Masscan
                                            : pkt::ScanTool::Mirai;
      ScannerProfile& s = new_scanner(*as, Category::SmallScanner, tool);
      add_sessions(s, config_.small_sessions_per_year, [&](SessionSpec& spec) {
        spec.coverage =
            rng_.chance(config_.small_medium_share)
                ? uniform_in(2e-3, config_.small_medium_cov_hi)
                : uniform_in(2e-5, 2e-3);
        spec.duration =
            net::Duration::minutes(static_cast<std::int64_t>(uniform_in(5, 360)));
        spec.ports = pick_distinct_ports(small_scan_catalog(),
                                         rng_.chance(0.2) ? 2 : 1, rng_);
      }, /*minimum_sessions=*/0);
      finish_scanner(s);
    }
  }

  // --- shared session machinery -----------------------------------------------

  template <typename Customize>
  void add_sessions(ScannerProfile& s, double per_year, Customize customize,
                    std::size_t minimum_sessions = 1) {
    const std::size_t n =
        poisson_at_least(per_year * year_scale_, minimum_sessions);
    s.sessions.reserve(s.sessions.size() + n);
    for (std::size_t j = 0; j < n; ++j) {
      SessionSpec spec;
      spec.start = sample_start(sample_day());
      customize(spec);
      s.sessions.push_back(std::move(spec));
    }
  }

  const PopulationConfig& config_;
  const asdb::Registry& registry_;
  const KeyOrigins& origins_;
  const std::vector<ResearchOrg>* reuse_orgs_;
  net::Rng rng_;
  std::int64_t window_days_;
  double year_scale_;

  std::vector<const AsRecord*> all_clouds_;
  std::vector<const AsRecord*> all_isps_;
  std::vector<const AsRecord*> all_hosting_;
  std::vector<const AsRecord*> all_edu_;
  std::vector<const AsRecord*> all_any_;

  std::vector<ScannerProfile> scanners_;
  std::vector<ResearchOrg> orgs_;
  net::FlatMap<net::Ipv4Address, bool> used_ips_;
  std::uint64_t next_stream_ = 1;
};

}  // namespace

Population build_population(const PopulationConfig& config,
                            const asdb::Registry& registry,
                            const KeyOrigins& origins,
                            const std::vector<ResearchOrg>* reuse_orgs) {
  if (config.window_end_day <= config.window_start_day) {
    throw std::invalid_argument("build_population: empty window");
  }
  return Builder(config, registry, origins, reuse_orgs).build();
}

std::vector<ResearchOrg> build_research_orgs(const PopulationConfig& config,
                                             const asdb::Registry& registry,
                                             const KeyOrigins& origins) {
  if (config.window_end_day <= config.window_start_day) {
    throw std::invalid_argument("build_research_orgs: empty window");
  }
  return Builder(config, registry, origins, nullptr).build_orgs_only();
}

}  // namespace orion::scangen
