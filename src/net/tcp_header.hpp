// TCP segment wire format (RFC 793). The stack's connection machinery
// lives in stack/tcp_socket; this file is only bytes <-> struct, plus
// the in-place view the host receive path reads segments through.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "net/addr.hpp"
#include "net/buffer.hpp"
#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "util/assert.hpp"

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

/// A TCP header's length with `options_len` option bytes, padded.
constexpr std::size_t tcp_header_len(std::size_t options_len) {
    return 20 + ((options_len + 3) / 4) * 4;
}

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

    std::size_t header_len() const { return tcp_header_len(options.size()); }

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

/// Write `seg`'s header with `options` (not seg.options, padded with End)
/// and `payload` followed by `payload_tail` into `out`, exactly their
/// size, checksummed over the pseudo-header. TcpSegment::serialize and
/// TcpSocket both use it (inline: every segment sent passes here); the
/// socket passes a segment that wraps its send ring as two spans.
inline void write_tcp(std::span<std::uint8_t> out, const TcpSegment& seg,
                      std::span<const std::uint8_t> options,
                      std::span<const std::uint8_t> payload, Ipv4Addr src,
                      Ipv4Addr dst,
                      std::span<const std::uint8_t> payload_tail = {}) {
    const std::size_t hlen = tcp_header_len(options.size());
    GK_EXPECTS(hlen <= 60);
    GK_EXPECTS(out.size() == hlen + payload.size() + payload_tail.size() &&
               out.size() <= 0xffff);
    std::uint8_t* p = out.data();
    store_u16(p, seg.src_port);
    store_u16(p + 2, seg.dst_port);
    store_u32(p + 4, seg.seq);
    store_u32(p + 8, seg.ack);
    p[12] = static_cast<std::uint8_t>((hlen / 4) << 4);
    p[13] = static_cast<std::uint8_t>(
        (seg.flags.urg ? 0x20 : 0) | (seg.flags.ack ? 0x10 : 0) |
        (seg.flags.psh ? 0x08 : 0) | (seg.flags.rst ? 0x04 : 0) |
        (seg.flags.syn ? 0x02 : 0) | (seg.flags.fin ? 0x01 : 0));
    store_u16(p + 14, seg.window);
    store_u16(p + 16, 0); // checksum placeholder
    store_u16(p + 18, seg.urgent);
    std::fill(std::copy(options.begin(), options.end(), p + 20), p + hlen,
              std::uint8_t{0});
    std::copy(payload_tail.begin(), payload_tail.end(),
              std::copy(payload.begin(), payload.end(), p + hlen));

    ChecksumAccumulator acc;
    add_pseudo_header(acc, src, dst, proto::kTcp,
                      static_cast<std::uint16_t>(out.size()));
    acc.add_bytes(out);
    store_u16(p + 16, acc.finalize());
}

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
