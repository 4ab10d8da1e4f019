// UDP datagram (RFC 768). Checksums include the IPv4 pseudo-header, which
// is why NATs must fix them up when translating — and why the study can
// detect devices that do not.
#pragma once

#include "net/addr.hpp"
#include "net/buffer.hpp"

namespace gatekit::net {

struct UdpDatagram {
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    Bytes payload;

    /// Checksum observed on the wire (parse only) and whether it verified
    /// against the given pseudo-header addresses.
    std::uint16_t stored_checksum = 0;
    bool checksum_ok = true;

    /// Serialize with a computed checksum over the given pseudo-header.
    Bytes serialize(Ipv4Addr src, Ipv4Addr dst) const;

    /// Parse and verify. Bad checksums are recorded, not thrown.
    static UdpDatagram parse(std::span<const std::uint8_t> data,
                             Ipv4Addr src, Ipv4Addr dst);
};

/// Write a UDP datagram into `out` (8 + payload.size() bytes), checksummed
/// over the pseudo-header: the one UDP writer, for UdpDatagram::serialize
/// and UdpSocket::send_to.
void write_udp(std::span<std::uint8_t> out, std::uint16_t src_port,
               std::uint16_t dst_port, std::span<const std::uint8_t> payload,
               Ipv4Addr src, Ipv4Addr dst);

} // namespace gatekit::net
