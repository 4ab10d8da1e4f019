// The NAPT translation engine. Faithful to how consumer gateways actually
// behave: correct devices rewrite addresses/ports and fix every checksum;
// buggy ones (per DeviceProfile knobs) skip embedded-header rewrites,
// leave stale checksums inside ICMP payloads, convert ICMP errors into
// bogus TCP RSTs, or fall back to IP-only translation for transports they
// do not understand. All of Table 2 is generated by these code paths.
#pragma once

#include <optional>
#include <span>

#include "gateway/binding_table.hpp"
#include "gateway/profile.hpp"
#include "net/ipv4.hpp"
#include "net/packet_view.hpp"

namespace gatekit::gateway {

class NatEngine {
public:
    NatEngine(sim::EventLoop& loop, const DeviceProfile& profile);

    /// Configure after DHCP: the external address the translator
    /// rewrites inside sources to.
    void set_wan_addr(net::Ipv4Addr wan_addr) { wan_addr_ = wan_addr; }
    bool configured() const { return !wan_addr_.is_unspecified(); }
    net::Ipv4Addr wan_addr() const { return wan_addr_; }

    /// Verdicts of the in-place translator. kNotOurs (inbound only) means
    /// no NAT flow claims the packet: it is untouched and belongs to the
    /// gateway's own stack.
    enum class Verdict : std::uint8_t { kForwarded, kDropped, kNotOurs };

    /// Translate a LAN->WAN packet of any protocol in place via `view`,
    /// with incremental checksums. UDP/TCP: binding lookup, address/port
    /// rewrite, TTL and Record Route; a fragment, or a datagram whose
    /// transport geometry the view rejects, is a drop counted in
    /// Stats::dropped_malformed, as is ICMP shorter than its 8-byte
    /// header. ICMP: an echo opens a query mapping, and every message
    /// crosses with its outer header translated. Other transports follow
    /// the profile's UnknownProtocolPolicy.
    Verdict outbound(net::PacketView& view);
    /// WAN->LAN counterpart. Fragments, unsound geometry and truncated
    /// ICMP are kNotOurs. A relayed ICMP error gets its quote rewritten
    /// and its ICMP checksum recomputed; ls2's RST quirk replaces the
    /// error with a 40-byte RST in the same buffer and re-points `view`.
    Verdict inbound(net::PacketView& view);

    /// Hairpin a LAN->WAN-address datagram back into the LAN in place
    /// (UDP only). False, with the bytes untouched, when the device does
    /// not hairpin, no binding matches the targeted external port, or no
    /// mapping is left for the sender.
    bool hairpin(net::PacketView& view);
    /// Hairpin's sender half, in place: give the sender its own external
    /// mapping (so the target sees it as an outside peer would) and
    /// rewrite `view` toward `target`. False when no mapping is left.
    bool hairpin_to(net::PacketView& view, net::Endpoint target);

    BindingTable& udp_table() { return udp_; }
    BindingTable& tcp_table() { return tcp_; }

    /// Side-table occupancy: both are hard-capped, so a flood of
    /// distinct ICMP query ids or unknown-protocol remotes cannot grow
    /// translation state without bound (tests/test_nat_caps.cpp).
    std::size_t icmp_query_count() const { return icmp_queries_.size(); }
    std::size_t ip_only_count() const { return ip_only_.size(); }

    /// Forget all translation state (UDP/TCP bindings, ICMP query ids,
    /// IP-only mappings) — the reboot component of a GatewayFault.
    void flush();

    struct Stats {
        std::uint64_t dropped_capacity = 0;
        std::uint64_t dropped_policy = 0;
        std::uint64_t icmp_translated = 0;
        std::uint64_t icmp_dropped = 0;
        // Hardening verdicts (off-path attack battery). All stay zero
        // while the profile's hardening knobs are at their defaults; the
        // supervisor reads them to annotate attack-induced failures.
        std::uint64_t icmp_rate_limited = 0;
        std::uint64_t icmp_quote_rejected = 0;
        std::uint64_t icmp_teardowns = 0;
        std::uint64_t wan_syn_dropped = 0;
        std::uint64_t wan_syn_tarpitted = 0;
        std::uint64_t wan_stray_dropped = 0;
        /// Outbound UDP/TCP fragments, datagrams with unsound transport
        /// geometry, and ICMP shorter than its header (no registry
        /// series).
        std::uint64_t dropped_malformed = 0;
    };
    const Stats& stats() const { return stats_; }

    /// Register drop/ICMP counters and the per-policy UDP timeout hit
    /// counters under `device`, and bind both binding tables. All
    /// instrumentation stays branch-on-null no-ops until this is called.
    void bind_observability(obs::MetricsRegistry& reg,
                            const std::string& device);

private:
    /// Last step of every UDP/TCP/ICMP rewrite: TTL and Record Route.
    void finish(net::PacketView& v) const;
    sim::Duration udp_timeout_for(const Binding& b, bool inbound_packet,
                                  std::uint16_t service_port) const;
    void refresh_tcp(Binding& b);
    /// After the rewrite: a RST ends the binding, a FIN pair starts the
    /// linger. `b` is invalid once this returns.
    void close_tcp(Binding& b, std::uint8_t flags);

    Verdict icmp_outbound(net::PacketView& v);
    Verdict other_outbound(net::PacketView& v);
    Verdict icmp_inbound(net::PacketView& v);
    Verdict other_inbound(net::PacketView& v);
    /// Hand an inbound error to `to`: quote rewritten, ICMP checksum
    /// recomputed, outer header translated.
    void relay_error(net::PacketView& v, std::span<std::uint8_t> icmp,
                     net::Endpoint to) const;
    /// ls2's quirk: overwrite the error in `v` with a bogus RST from
    /// `remote` toward the binding's internal endpoint.
    void rst_from_icmp(net::PacketView& v, net::Ipv4Addr remote,
                       const Binding& binding) const;
    /// The Table 2 kind of an error; nullopt for queries and for codes no
    /// RFC defines.
    static std::optional<IcmpKind> classify_icmp(std::uint8_t type,
                                                 std::uint8_t code);
    /// Consume one unit of the per-second inbound-error budget; false
    /// once the window's icmp_error_rate_limit is spent.
    bool icmp_error_admitted();

    sim::EventLoop& loop_;
    const DeviceProfile& profile_;
    BindingTable udp_;
    BindingTable tcp_;
    net::Ipv4Addr wan_addr_;
    Stats stats_;

    // icmp_error_rate_limit window (only advanced while the knob is on).
    sim::TimePoint icmp_err_window_{};
    int icmp_err_count_ = 0;

    // Instrumentation; all nullptr until bind_observability.
    obs::Counter* m_drop_capacity_ = nullptr;
    obs::Counter* m_drop_policy_ = nullptr;
    obs::Counter* m_icmp_translated_ = nullptr;
    obs::Counter* m_icmp_dropped_ = nullptr;
    obs::Counter* m_icmp_rate_limited_ = nullptr;
    obs::Counter* m_icmp_quote_rejected_ = nullptr;
    obs::Counter* m_icmp_teardown_ = nullptr;
    obs::Counter* m_wan_syn_dropped_ = nullptr;
    obs::Counter* m_wan_syn_tarpitted_ = nullptr;
    obs::Counter* m_wan_stray_dropped_ = nullptr;
    // Which UDP refresh policy decided each timeout (per-service override,
    // inbound refresh, outbound refresh, or the initial timeout).
    obs::Counter* m_to_per_service_ = nullptr;
    obs::Counter* m_to_inbound_ = nullptr;
    obs::Counter* m_to_outbound_ = nullptr;
    obs::Counter* m_to_initial_ = nullptr;
    obs::LogHistogram* m_to_granted_ns_ = nullptr;

    // ICMP echo (query) bindings: internal (addr, id, remote) <-> id.
    struct IcmpQueryKey {
        net::Ipv4Addr internal;
        std::uint16_t id = 0;
        net::Ipv4Addr remote;
        friend constexpr auto operator<=>(const IcmpQueryKey&,
                                          const IcmpQueryKey&) = default;
    };
    struct IcmpQueryBinding {
        IcmpQueryKey key;
        sim::TimePoint expires_at{};
    };
    std::map<IcmpQueryKey, IcmpQueryBinding> icmp_queries_;

    // IP-only bindings for unknown transports: (proto, remote) -> internal.
    struct IpOnlyKey {
        std::uint8_t proto = 0;
        net::Ipv4Addr remote;
        friend constexpr auto operator<=>(const IpOnlyKey&, const IpOnlyKey&) =
            default;
    };
    struct IpOnlyBinding {
        net::Ipv4Addr internal;
        sim::TimePoint expires_at{};
    };
    std::map<IpOnlyKey, IpOnlyBinding> ip_only_;
};

/// The datagram prefix an ICMP error quotes, located in place. A quote
/// is accepted when it holds a whole IPv4 header: version 4, an IHL of
/// at least 20 bytes that fits the quote, and a total length no shorter
/// than that header. It may stop anywhere after the header, and `l4`
/// holds the transport bytes that made it in (never past the quoted
/// total length). The header checksum is not checked.
struct IcmpQuote {
    std::uint8_t protocol = 0;
    std::uint16_t frag_offset = 0; ///< in 8-byte units
    net::Ipv4Addr src;
    net::Ipv4Addr dst;
    std::span<const std::uint8_t> l4;

    static std::optional<IcmpQuote> parse(std::span<const std::uint8_t> q);
    /// The big-endian 16-bit word at `at` in l4 (ports at 0 and 2, the
    /// echo id at 4); the caller checks l4's size.
    std::uint16_t word(std::size_t at) const {
        return static_cast<std::uint16_t>((l4[at] << 8) | l4[at + 1]);
    }
    /// Full 8 transport bytes and, for UDP, a length field of at least 8:
    /// what the validate_embedded_binding knob requires.
    bool complete() const;
};

/// Rewrite one endpoint of the datagram quoted in an ICMP error, in
/// place. `src_side` picks the quoted source (errors coming in: external
/// view back to internal) or destination (errors an inside host sends
/// about traffic it received). The address always changes; with
/// `fix_ip_checksum` the quote's IP header checksum follows it (RFC
/// 1624). With `fix_transport` a UDP/TCP quote's port changes too, and a
/// UDP checksum inside the quote follows both, a computed zero written
/// as 0xffff (RFC 768) so the next NAT layer does not read "disabled".
/// TCP's checksum at transport offset 16 lies beyond the RFC 792 8-byte
/// quote and is left alone.
void translate_quote(std::span<std::uint8_t> quote, bool src_side,
                     net::Endpoint to, bool fix_ip_checksum,
                     bool fix_transport);

} // namespace gatekit::gateway
