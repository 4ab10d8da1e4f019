// TCP segment wire format (RFC 793). The stack's connection machinery
// lives in stack/tcp_socket; this file is only bytes <-> struct, plus
// the in-place view the host receive path reads segments through.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "net/addr.hpp"
#include "net/buffer.hpp"

namespace gatekit::net {

struct TcpFlags {
    bool syn = false;
    bool ack = false;
    bool fin = false;
    bool rst = false;
    bool psh = false;
    bool urg = false;

    friend constexpr bool operator==(const TcpFlags&, const TcpFlags&) =
        default;
};

struct TcpSegment {
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    TcpFlags flags;
    std::uint16_t window = 65535;
    std::uint16_t urgent = 0;
    Bytes options; ///< raw option bytes, padded to 4-byte multiple on wire
    Bytes payload;

    std::uint16_t stored_checksum = 0; ///< parse only
    bool checksum_ok = true;           ///< parse only

    std::size_t header_len() const {
        return 20 + ((options.size() + 3) / 4) * 4;
    }

    Bytes serialize(Ipv4Addr src, Ipv4Addr dst) const;
    static TcpSegment parse(std::span<const std::uint8_t> data, Ipv4Addr src,
                            Ipv4Addr dst);

    /// Append an MSS option (kind 2).
    void add_mss_option(std::uint16_t mss);
    /// Read the MSS option if present.
    std::optional<std::uint16_t> mss_option() const;

    /// Append a window-scale option (kind 3, RFC 7323).
    void add_wscale_option(std::uint8_t shift);
    /// Read the window-scale option if present.
    std::optional<std::uint8_t> wscale_option() const;

    /// Human-readable flag string, e.g. "SYN|ACK" (diagnostics).
    std::string flag_string() const;
};

/// A TCP segment read in place: the fields the socket state machine
/// reads, with options and payload as spans of the wire buffer. It owns
/// nothing and dies with that buffer (DESIGN.md §13).
struct TcpSegmentView {
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    TcpFlags flags;
    std::uint16_t window = 0;
    std::span<const std::uint8_t> options;
    std::span<const std::uint8_t> payload;
    bool checksum_ok = false;

    /// Read a segment of exactly `data.size()` bytes. Accepts what
    /// TcpSegment::parse accepts (nullopt where it throws) and verifies
    /// the checksum over the same bytes.
    static std::optional<TcpSegmentView>
    parse(std::span<const std::uint8_t> data, Ipv4Addr src, Ipv4Addr dst);

    std::optional<std::uint16_t> mss_option() const;
    std::optional<std::uint8_t> wscale_option() const;
};

} // namespace gatekit::net
