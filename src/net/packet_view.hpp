// Zero-copy packet view: one parse at ingress yields the header offsets
// the whole forwarding path needs, and NAT rewrites happen in place with
// RFC 1624 incremental checksum updates instead of a parse/serialize
// round trip per stage. The view never owns bytes — it aliases a frame
// buffer and is invalidated by anything that reallocates or frees it
// (see DESIGN.md §13 for the discipline).
//
// Incremental updates preserve whatever the wire checksums said: a
// correct checksum stays correct (the update is closed over the
// representatives a serializer emits — [0, 0xfffe] for IPv4/TCP,
// [1, 0xffff] for UDP, where 0 means "disabled"), a wrong one stays
// wrong by the same amount, and a disabled UDP checksum stays 0. Only a
// Record Route stamp recomputes the IP header checksum outright.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/addr.hpp"
#include "net/ipv4.hpp"

namespace gatekit::net {

class PacketView {
public:
    /// Parse the IPv4 header (and the UDP/TCP port/checksum geometry of
    /// first fragments) out of `datagram` without copying anything.
    /// Returns nullopt on structural damage — same acceptance rules as
    /// Ipv4Packet::parse. The view aliases `datagram`; the caller keeps
    /// the buffer alive and unmoved for the view's lifetime.
    static std::optional<PacketView> parse(std::span<std::uint8_t> datagram);
    /// parse() for a buffer known to hold a well-formed header, such as
    /// fresh Ipv4Packet::serialize() output: asserts instead of failing.
    static PacketView of(std::span<std::uint8_t> datagram);

    // --- geometry ------------------------------------------------------
    std::uint8_t* data() const { return data_; }
    /// IPv4 total length: the datagram's meaningful byte count. Trailing
    /// bytes beyond this (link padding) are not part of the packet.
    std::uint16_t total_len() const { return total_; }
    std::uint8_t header_len() const { return ihl_; }
    std::uint8_t protocol() const { return proto_; }
    std::uint8_t ttl() const { return data_[8]; }
    bool has_options() const { return ihl_ > 20; }
    /// The raw option bytes (padding included); empty without options.
    std::span<const std::uint8_t> options() const {
        return {data_ + 20, ihl_ - 20u};
    }
    bool is_fragment() const { return fragment_; }

    /// Everything after the IP header, up to total_len.
    std::span<std::uint8_t> payload() const {
        return {data_ + ihl_, static_cast<std::size_t>(total_ - ihl_)};
    }

    Ipv4Addr src() const { return src_; }
    Ipv4Addr dst() const { return dst_; }

    /// True when UDP/TCP ports were parsed (first fragment, transport
    /// header complete, UDP length field consistent with the IP total).
    bool has_l4() const { return has_l4_; }
    std::uint16_t src_port() const { return sport_; }
    std::uint16_t dst_port() const { return dport_; }

    /// TCP flag bits (byte 13 of the TCP header); 0 for non-TCP.
    std::uint8_t tcp_flags() const {
        return proto_ == proto::kTcp && has_l4_ ? data_[ihl_ + 13] : 0;
    }

    // --- in-place mutation (incremental checksum fixup) ----------------
    void set_src(Ipv4Addr a);
    void set_dst(Ipv4Addr a);
    void set_src_port(std::uint16_t p);
    void set_dst_port(std::uint16_t p);
    void decrement_ttl();
    /// Stamp `router` into a Record Route option with room left (see
    /// net::stamp_record_route) and recompute the header checksum.
    void record_route(Ipv4Addr router);

private:
    void ip_fixup16(std::size_t off, std::uint16_t old_w, std::uint16_t new_w);
    void ip_fixup32(std::size_t off, std::uint32_t old_w, std::uint32_t new_w);
    /// Update the L4 checksum for a changed word that is part of the
    /// TCP/UDP checksum coverage (pseudo-header addresses or ports).
    void l4_fixup16(std::uint16_t old_w, std::uint16_t new_w);
    void l4_fixup32(std::uint32_t old_w, std::uint32_t new_w);

    std::uint16_t read16(std::size_t off) const {
        return static_cast<std::uint16_t>((data_[off] << 8) | data_[off + 1]);
    }
    void write16(std::size_t off, std::uint16_t v) {
        data_[off] = static_cast<std::uint8_t>(v >> 8);
        data_[off + 1] = static_cast<std::uint8_t>(v);
    }

    std::uint8_t* data_ = nullptr;
    std::uint16_t total_ = 0;
    std::uint8_t ihl_ = 0;
    std::uint8_t proto_ = 0;
    bool fragment_ = false;
    bool has_l4_ = false;
    /// Absolute offset of the L4 checksum; 0 = none (no L4 geometry, or
    /// a UDP checksum disabled by the sender).
    std::uint16_t l4_ck_off_ = 0;
    Ipv4Addr src_;
    Ipv4Addr dst_;
    std::uint16_t sport_ = 0;
    std::uint16_t dport_ = 0;
};

} // namespace gatekit::net
