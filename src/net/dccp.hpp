// DCCP wire format (RFC 4340), long (48-bit) sequence numbers only.
// Unlike SCTP, the DCCP checksum covers an IPv4 pseudo-header, so an
// "IP-only" NAT fallback corrupts it — the paper's explanation for why
// no gateway passed DCCP while 18 passed SCTP.
#pragma once

#include <cstdint>
#include <optional>

#include "net/addr.hpp"
#include "net/buffer.hpp"

namespace gatekit::net {

enum class DccpType : std::uint8_t {
    Request = 0,
    Response = 1,
    Data = 2,
    Ack = 3,
    DataAck = 4,
    CloseReq = 5,
    Close = 6,
    Reset = 7,
};

struct DccpPacket {
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint8_t ccval = 0;
    DccpType type = DccpType::Request;
    std::uint64_t seq = 0;                ///< 48-bit
    std::optional<std::uint64_t> ack_seq; ///< present on Response/Ack/DataAck/Reset
    std::uint32_t service_code = 0;       ///< Request/Response
    std::uint8_t reset_code = 0;          ///< Reset
    Bytes payload;                        ///< Data/DataAck application data

    std::uint16_t stored_checksum = 0; ///< parse only
    bool checksum_ok = true;           ///< parse only

    Bytes serialize(Ipv4Addr src, Ipv4Addr dst) const;
    /// The number of bytes serialize() writes.
    std::size_t wire_len() const;
    static DccpPacket parse(std::span<const std::uint8_t> data, Ipv4Addr src,
                            Ipv4Addr dst);

    bool has_ack_area() const {
        return type == DccpType::Response || type == DccpType::Ack ||
               type == DccpType::DataAck || type == DccpType::Reset ||
               type == DccpType::CloseReq || type == DccpType::Close;
    }
};

} // namespace gatekit::net
