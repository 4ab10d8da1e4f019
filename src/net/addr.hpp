// Address vocabulary types: Ethernet MAC and IPv4 addresses.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

namespace gatekit::net {

/// 48-bit Ethernet MAC address.
class MacAddr {
public:
    constexpr MacAddr() = default;
    constexpr explicit MacAddr(std::array<std::uint8_t, 6> octets)
        : octets_(octets) {}

    /// Parse "aa:bb:cc:dd:ee:ff"; throws ParseError on bad input.
    static MacAddr parse(std::string_view text);

    /// Deterministic locally-administered unicast address from an index,
    /// used to assign distinct MACs to simulated interfaces.
    static constexpr MacAddr from_index(std::uint32_t idx) {
        return MacAddr({0x02, 0x00,
                        static_cast<std::uint8_t>(idx >> 24),
                        static_cast<std::uint8_t>(idx >> 16),
                        static_cast<std::uint8_t>(idx >> 8),
                        static_cast<std::uint8_t>(idx)});
    }

    static constexpr MacAddr broadcast() {
        return MacAddr({0xff, 0xff, 0xff, 0xff, 0xff, 0xff});
    }

    constexpr bool is_broadcast() const {
        for (auto b : octets_)
            if (b != 0xff) return false;
        return true;
    }
    constexpr bool is_multicast() const { return (octets_[0] & 0x01) != 0; }

    constexpr const std::array<std::uint8_t, 6>& octets() const {
        return octets_;
    }
    std::string to_string() const;

    /// Lexicographic in the octets, as a defaulted comparison would be,
    /// but on one integer instead of a memcmp.
    friend constexpr std::strong_ordering operator<=>(const MacAddr& a,
                                                      const MacAddr& b) {
        return a.packed() <=> b.packed();
    }
    friend constexpr bool operator==(const MacAddr& a, const MacAddr& b) {
        return a.packed() == b.packed();
    }

private:
    /// The octets as one big-endian integer: comparing two of them
    /// orders addresses exactly as comparing the octets in turn does.
    constexpr std::uint64_t packed() const {
        const auto& o = octets_;
        return (std::uint64_t{o[0]} << 40) | (std::uint64_t{o[1]} << 32) |
               (std::uint64_t{o[2]} << 24) | (std::uint64_t{o[3]} << 16) |
               (std::uint64_t{o[4]} << 8) | o[5];
    }

    std::array<std::uint8_t, 6> octets_{};
};

/// IPv4 address, stored in host order for arithmetic convenience;
/// serialization code converts at the wire boundary.
class Ipv4Addr {
public:
    constexpr Ipv4Addr() = default;
    constexpr explicit Ipv4Addr(std::uint32_t host_order) : v_(host_order) {}
    constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                       std::uint8_t d)
        : v_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
             (std::uint32_t{c} << 8) | d) {}

    /// Parse dotted quad; throws ParseError on bad input.
    static Ipv4Addr parse(std::string_view text);

    static constexpr Ipv4Addr any() { return Ipv4Addr{0u}; }
    static constexpr Ipv4Addr broadcast() { return Ipv4Addr{0xffffffffu}; }

    constexpr std::uint32_t value() const { return v_; }
    constexpr bool is_unspecified() const { return v_ == 0; }
    constexpr bool is_broadcast() const { return v_ == 0xffffffffu; }

    /// RFC 1918 private-space test (10/8, 172.16/12, 192.168/16).
    constexpr bool is_private() const {
        return (v_ >> 24) == 10 || (v_ >> 20) == 0xac1 ||
               (v_ >> 16) == 0xc0a8;
    }

    /// True when `other` is in the same subnet under `prefix_len` bits.
    constexpr bool same_subnet(Ipv4Addr other, int prefix_len) const {
        if (prefix_len <= 0) return true;
        const std::uint32_t mask =
            prefix_len >= 32 ? 0xffffffffu : ~((1u << (32 - prefix_len)) - 1);
        return (v_ & mask) == (other.v_ & mask);
    }

    std::string to_string() const;

    friend constexpr auto operator<=>(const Ipv4Addr&, const Ipv4Addr&) =
        default;

private:
    std::uint32_t v_ = 0;
};

/// Transport endpoint (address, port) — the unit NAT bindings map between.
struct Endpoint {
    Ipv4Addr addr;
    std::uint16_t port = 0;

    friend constexpr auto operator<=>(const Endpoint&, const Endpoint&) =
        default;
};

std::string to_string(const Endpoint& ep);

} // namespace gatekit::net
