#include "orion/charact/origins.hpp"

#include <algorithm>
#include <vector>

#include "charact_core.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/netbase/parallel.hpp"

namespace orion::charact {

OriginTable detail::origin_table(const telescope::EventDataset& dataset,
                                 const detect::IpSet& ah,
                                 const asdb::Registry& registry,
                                 const intel::AckedScannerList* acked,
                                 const asdb::ReverseDns* rdns, std::size_t top_n,
                                 std::size_t n_threads) {
  struct Agg {
    std::uint32_t asn = 0;  // 0 = unattributed
    std::uint64_t ips = 0;
    std::uint64_t acked_ips = 0;
    std::uint64_t packets = 0;
    std::vector<std::uint32_t> slash24s;  // deduplicated below
  };
  std::vector<Agg> aggs;
  net::FlatMap<std::uint32_t, std::uint32_t> agg_of_asn;  // asn -> aggs index

  // Each AH source's AS is resolved once here; the event scan below then
  // costs one flat-map probe per event (source -> its AS aggregate).
  OriginTable table;
  net::FlatMap<net::Ipv4Address, std::uint32_t> agg_of_ip;
  agg_of_ip.reserve(ah.size());
  std::vector<std::uint32_t> all_slash24s;
  all_slash24s.reserve(ah.size());
  for (const net::Ipv4Address ip : ah) {
    const asdb::AsRecord* as = registry.lookup(ip);
    const std::uint32_t asn = as ? as->asn : 0;
    const auto [index, inserted] =
        agg_of_asn.try_emplace(asn, static_cast<std::uint32_t>(aggs.size()));
    if (inserted) aggs.emplace_back().asn = asn;
    agg_of_ip.try_emplace(ip, *index);
    Agg& agg = aggs[*index];
    ++agg.ips;
    agg.slash24s.push_back(ip.slash24().value());
    all_slash24s.push_back(ip.slash24().value());
    if (acked && rdns && acked->match(ip, *rdns)) ++agg.acked_ips;
  }

  const std::vector<telescope::DarknetEvent>& events = dataset.events();
  std::vector<std::vector<std::uint64_t>> packets(n_threads);
  net::fork_join(n_threads, [&](std::size_t t) {
    std::vector<std::uint64_t>& sums = packets[t];
    sums.assign(aggs.size(), 0);
    const std::size_t end = net::part_begin(events.size(), n_threads, t + 1);
    for (std::size_t i = net::part_begin(events.size(), n_threads, t); i < end; ++i) {
      const std::uint32_t* index = agg_of_ip.find(events[i].key.src);
      if (index != nullptr) sums[*index] += events[i].packets;
    }
  });
  for (const std::vector<std::uint64_t>& sums : packets) {
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      aggs[i].packets += sums[i];
      table.total_packets += sums[i];
    }
  }

  const auto distinct = [](std::vector<std::uint32_t>& v) {
    std::sort(v.begin(), v.end());
    return static_cast<std::uint64_t>(std::unique(v.begin(), v.end()) - v.begin());
  };
  table.total_ips = ah.size();
  table.total_slash24s = distinct(all_slash24s);

  std::vector<OriginRow> rows;
  rows.reserve(aggs.size());
  for (Agg& agg : aggs) {
    OriginRow row;
    row.asn = agg.asn;
    const asdb::AsRecord* as = registry.find_asn(agg.asn);
    row.as_type = as ? to_string(as->type) : "?";
    row.country = as ? as->country : "??";
    row.unique_ips = agg.ips;
    row.unique_slash24s = distinct(agg.slash24s);
    row.acked_ips = agg.acked_ips;
    row.packets = agg.packets;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const OriginRow& a, const OriginRow& b) {
    if (a.unique_ips != b.unique_ips) return a.unique_ips > b.unique_ips;
    return a.asn < b.asn;
  });
  if (rows.size() > top_n) rows.resize(top_n);

  for (const OriginRow& row : rows) {
    table.top_ips += row.unique_ips;
    table.top_slash24s += row.unique_slash24s;
    table.top_packets += row.packets;
  }
  table.rows = std::move(rows);
  return table;
}

OriginTable origin_table(const telescope::EventDataset& dataset,
                         const detect::IpSet& ah, const asdb::Registry& registry,
                         const intel::AckedScannerList* acked,
                         const asdb::ReverseDns* rdns, std::size_t top_n) {
  return detail::origin_table(dataset, ah, registry, acked, rdns, top_n,
                              net::scan_threads(dataset.event_count()));
}

}  // namespace orion::charact
