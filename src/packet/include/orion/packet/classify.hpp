// Batched forms of the Section 2.A traffic classifier and the tool
// fingerprinter over PacketBatch columns.
//
// Each fills a byte column with the enum value the constexpr per-record
// core (classify_traffic / classify_tool) returns for the same record; the
// cores are the equivalence oracle the tests compare against.
#pragma once

#include <cstddef>
#include <cstdint>

#include "orion/packet/batch.hpp"
#include "orion/packet/fingerprint.hpp"
#include "orion/packet/packet.hpp"

namespace orion::pkt {

/// out[i] = uint8(classify_traffic(proto[i], tcp_flags[i], icmp_type[i])).
void classify_traffic_batch(const std::uint8_t* proto,
                            const std::uint8_t* tcp_flags,
                            const std::uint8_t* icmp_type, std::size_t n,
                            std::uint8_t* out);

/// out[i] = uint8(classify_tool(proto[i], dst[i], dst_port[i], ip_id[i],
/// tcp_seq[i])).
void classify_tool_batch(const std::uint8_t* proto, const std::uint32_t* dst,
                         const std::uint16_t* dst_port,
                         const std::uint16_t* ip_id,
                         const std::uint32_t* tcp_seq, std::size_t n,
                         std::uint8_t* out);

/// Column-view conveniences over a PacketBatch; `out` must hold
/// batch.size() bytes.
inline void classify_traffic_batch(const PacketBatch& batch, std::uint8_t* out) {
  classify_traffic_batch(batch.proto_col().data(), batch.tcp_flags_col().data(),
                         batch.icmp_type_col().data(), batch.size(), out);
}
inline void classify_tool_batch(const PacketBatch& batch, std::uint8_t* out) {
  classify_tool_batch(batch.proto_col().data(), batch.dst_col().data(),
                      batch.dst_port_col().data(), batch.ip_id_col().data(),
                      batch.tcp_seq_col().data(), batch.size(), out);
}

}  // namespace orion::pkt
