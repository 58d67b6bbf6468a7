#include "orion/charact/portfig.hpp"

#include <algorithm>

#include "charact_core.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/netbase/parallel.hpp"

namespace orion::charact {

std::vector<PortRow> detail::top_ports(const telescope::EventDataset& dataset,
                                       const detect::IpSet& ah, std::size_t top_n,
                                       std::size_t n_threads) {
  // Flat copies of the AH set and the per-(port, type) table: one probe
  // per event, plus one more for AH events. Thread t tallies only the
  // (port, type) keys that hash to it, so the tables are disjoint and
  // together no larger than one table (a row split would give each
  // thread nearly every key: port sweepers hit every port every day).
  net::FlatMap<net::Ipv4Address, bool> members;
  members.reserve(ah.size());
  for (const net::Ipv4Address ip : ah) members.try_emplace(ip, true);

  std::vector<std::vector<PortRow>> parts(n_threads);
  net::fork_join(n_threads, [&](std::size_t t) {
    net::FlatMap<std::uint32_t, PortRow> rows;  // key: port << 8 | type
    for (const telescope::DarknetEvent& e : dataset.events()) {
      const std::uint32_t key = (std::uint32_t{e.key.dst_port} << 8) |
                                static_cast<std::uint32_t>(e.key.type);
      if (net::key_part(key, n_threads) != t) continue;
      if (members.find(e.key.src) == nullptr) continue;
      auto [row, inserted] = rows.try_emplace(key);
      if (inserted) {
        row->port = e.key.dst_port;
        row->type = e.key.type;
      }
      row->packets += e.packets;
      for (std::size_t k = 0; k < row->by_tool.size(); ++k) {
        row->by_tool[k] += e.packets_by_tool[k];
      }
    }
    parts[t].reserve(rows.size());
    rows.for_each([&](std::uint32_t, const PortRow& row) { parts[t].push_back(row); });
  });
  std::vector<PortRow> out = std::move(parts[0]);
  for (std::size_t t = 1; t < n_threads; ++t) {
    out.insert(out.end(), parts[t].begin(), parts[t].end());
  }

  // Total order: equal packets and port (TCP/53 vs UDP/53) fall back to
  // the traffic type, so the ranking never depends on hash order or on
  // which thread tallied a row — and ranking only the rows returned
  // yields the same prefix as a full sort.
  const std::size_t kept = std::min(top_n, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(kept),
                    out.end(), [](const PortRow& a, const PortRow& b) {
                      if (a.packets != b.packets) return a.packets > b.packets;
                      if (a.port != b.port) return a.port < b.port;
                      return a.type < b.type;
                    });
  out.resize(kept);
  return out;
}

std::vector<PortRow> top_ports(const telescope::EventDataset& dataset,
                               const detect::IpSet& ah, std::size_t top_n) {
  return detail::top_ports(dataset, ah, top_n, net::scan_threads(dataset.event_count()));
}

}  // namespace orion::charact
