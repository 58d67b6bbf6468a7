#include "orion/charact/portfig.hpp"

#include <algorithm>

#include "orion/netbase/flat_map.hpp"

namespace orion::charact {

std::vector<PortRow> top_ports(const telescope::EventDataset& dataset,
                               const detect::IpSet& ah, std::size_t top_n) {
  // Flat copies of the AH set and the per-(port, type) table: one probe
  // per event, plus one more for AH events.
  net::FlatMap<net::Ipv4Address, bool> members;
  members.reserve(ah.size());
  for (const net::Ipv4Address ip : ah) members.try_emplace(ip, true);

  net::FlatMap<std::uint32_t, PortRow> rows;  // key: port << 8 | type
  for (const telescope::DarknetEvent& e : dataset.events()) {
    if (members.find(e.key.src) == nullptr) continue;
    const std::uint32_t key = (std::uint32_t{e.key.dst_port} << 8) |
                              static_cast<std::uint32_t>(e.key.type);
    auto [row, inserted] = rows.try_emplace(key);
    if (inserted) {
      row->port = e.key.dst_port;
      row->type = e.key.type;
    }
    row->packets += e.packets;
    for (std::size_t t = 0; t < row->by_tool.size(); ++t) {
      row->by_tool[t] += e.packets_by_tool[t];
    }
  }
  std::vector<PortRow> out;
  out.reserve(rows.size());
  rows.for_each([&](std::uint32_t, const PortRow& row) { out.push_back(row); });
  // Total order: equal packets and port (TCP/53 vs UDP/53) fall back to
  // the traffic type, so the ranking never depends on hash order.
  std::sort(out.begin(), out.end(), [](const PortRow& a, const PortRow& b) {
    if (a.packets != b.packets) return a.packets > b.packets;
    if (a.port != b.port) return a.port < b.port;
    return a.type < b.type;
  });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

}  // namespace orion::charact
