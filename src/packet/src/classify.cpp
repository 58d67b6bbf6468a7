#include "orion/packet/classify.hpp"

namespace orion::pkt {

void classify_traffic_batch(const std::uint8_t* proto,
                            const std::uint8_t* tcp_flags,
                            const std::uint8_t* icmp_type, std::size_t n,
                            std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(classify_traffic(
        static_cast<net::IpProto>(proto[i]), tcp_flags[i], icmp_type[i]));
  }
}

void classify_tool_batch(const std::uint8_t* proto, const std::uint32_t* dst,
                         const std::uint16_t* dst_port,
                         const std::uint16_t* ip_id,
                         const std::uint32_t* tcp_seq, std::size_t n,
                         std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(
        classify_tool(static_cast<net::IpProto>(proto[i]),
                      net::Ipv4Address(dst[i]), dst_port[i], ip_id[i],
                      tcp_seq[i]));
  }
}

}  // namespace orion::pkt
