// IPv4 header + datagram (RFC 791), including option handling (the paper
// notes some gateways ignore Record Route, so options are first-class).
#pragma once

#include <algorithm>
#include <cstdint>

#include "net/addr.hpp"
#include "net/buffer.hpp"
#include "net/checksum.hpp"
#include "util/assert.hpp"

namespace gatekit::net {

/// IP protocol numbers used in this study.
namespace proto {
inline constexpr std::uint8_t kIcmp = 1;
inline constexpr std::uint8_t kTcp = 6;
inline constexpr std::uint8_t kUdp = 17;
inline constexpr std::uint8_t kDccp = 33;
inline constexpr std::uint8_t kSctp = 132;
} // namespace proto

/// IPv4 option type octets.
namespace ipopt {
inline constexpr std::uint8_t kEnd = 0;
inline constexpr std::uint8_t kNop = 1;
inline constexpr std::uint8_t kRecordRoute = 7;
} // namespace ipopt

/// An IPv4 header's length with `options_len` option bytes, padded.
constexpr std::size_t ipv4_header_len(std::size_t options_len) {
    return 20 + ((options_len + 3) / 4) * 4;
}

struct Ipv4Header {
    std::uint8_t tos = 0;
    std::uint16_t id = 0;
    bool dont_fragment = false;
    bool more_fragments = false;
    std::uint16_t frag_offset = 0; ///< in 8-byte units
    std::uint8_t ttl = 64;
    std::uint8_t protocol = 0;
    Ipv4Addr src;
    Ipv4Addr dst;
    Bytes options; ///< raw option bytes; serializer pads to 4-byte multiple

    /// Set by parse(): the checksum value found on the wire and whether it
    /// verified. The NAT bug tests depend on being able to see bad sums.
    std::uint16_t stored_checksum = 0;
    bool checksum_ok = true;

    std::size_t header_len() const { return ipv4_header_len(options.size()); }
};

/// Write `h` with `options` (not h.options), padded with End octets, at
/// the front of `datagram` (size = total length), checksummed. The one
/// IPv4 header writer: Ipv4Packet::serialize and Host's sends (inline:
/// every TCP segment passes here). Returns the header length.
inline std::size_t write_ipv4_header(std::span<std::uint8_t> datagram,
                                     const Ipv4Header& h,
                                     std::span<const std::uint8_t> options) {
    const std::size_t hlen = ipv4_header_len(options.size());
    GK_EXPECTS(hlen <= 60);
    GK_EXPECTS(datagram.size() >= hlen && datagram.size() <= 0xffff);
    std::uint8_t* p = datagram.data();
    p[0] = static_cast<std::uint8_t>(0x40 | (hlen / 4)); // version 4 + IHL
    p[1] = h.tos;
    store_u16(p + 2, static_cast<std::uint16_t>(datagram.size()));
    store_u16(p + 4, h.id);
    std::uint16_t flags_frag = h.frag_offset & 0x1fff;
    if (h.dont_fragment) flags_frag |= 0x4000;
    if (h.more_fragments) flags_frag |= 0x2000;
    store_u16(p + 6, flags_frag);
    p[8] = h.ttl;
    p[9] = h.protocol;
    store_u16(p + 10, 0); // checksum placeholder
    store_u32(p + 12, h.src.value());
    store_u32(p + 16, h.dst.value());
    // Pad options to a 4-byte boundary with End-of-Options octets.
    std::fill(std::copy(options.begin(), options.end(), p + 20), p + hlen,
              std::uint8_t{0});
    store_u16(p + 10, internet_checksum({p, hlen}));
    return hlen;
}

/// The addresses recorded so far in the Record Route option found in raw
/// IPv4 option bytes; empty when there is none.
std::vector<Ipv4Addr> recorded_route(std::span<const std::uint8_t> options);

struct Ipv4Packet {
    Ipv4Header h;
    Bytes payload;

    /// Serialize with freshly computed header checksum and total length.
    Bytes serialize() const;

    /// Parse a datagram. Never throws on a bad checksum (that's data, and
    /// the study inspects it); throws ParseError on structural damage.
    static Ipv4Packet parse(std::span<const std::uint8_t> data);

    /// Build a Record Route option body with `slots` empty entries.
    static Bytes make_record_route_option(int slots);

    /// Extract the addresses recorded in a Record Route option, if present.
    std::vector<Ipv4Addr> recorded_route() const {
        return net::recorded_route(h.options);
    }

    /// Append this router's address into the Record Route option (if one
    /// exists and has space), as a cooperating router would.
    void record_route(Ipv4Addr router);
};

/// Stamp `router` into the Record Route option found in raw IPv4 option
/// bytes, if there is one with room left, and advance its pointer.
/// Returns whether anything was written. A pointer below the first slot
/// (RFC 791 minimum 4) marks a malformed option and is left alone.
bool stamp_record_route(std::span<std::uint8_t> options, Ipv4Addr router);

/// Read the destination address straight out of a serialized datagram —
/// the routing fast path only needs these four bytes, not a full parse.
/// Throws ParseError when the buffer is shorter than an IPv4 header.
Ipv4Addr ipv4_dst(std::span<const std::uint8_t> data);
/// ipv4_dst's counterpart for the source address.
Ipv4Addr ipv4_src(std::span<const std::uint8_t> data);

} // namespace gatekit::net
