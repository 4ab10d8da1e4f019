// Carrier-grade NAT (RFC 6888 posture) and the CgnGateway device that
// wraps it: the middle box of a NAT444 deployment, translating between
// the carrier access network (one home-gateway WAN address per
// subscriber) and a single ISP-facing external address.
//
// Unlike a DeviceProfile-driven HomeGateway — a measured consumer device
// with calibrated quirks — the CGN always translates correctly: every
// checksum is fixed, ICMP quotes are rewritten in both directions, and
// TTL is decremented per hop. Its knobs are the deployment parameters an
// operator chooses: the port pool, the per-subscriber block carve
// (RFC 7422 deterministic NAT), EIM vs. EDM mapping, and hairpinning.
// Every packet goes through NatEngine's in-place translator: UDP and TCP
// through one engine per subscriber block (or one for the shared pool),
// each built from the block's DeviceProfile, as do inbound errors
// quoting them; echo queries and all other ICMP through one more engine
// built from the full-pool profile. The only ICMP step of the CGN's own
// is the external view of the quote in errors subscribers send.
//
// CgnGateway is HomeGateway's shape with a carrier's policy: the same
// Forwarder skeleton (forwarder.hpp) rewrites each received frame in
// place on its NIC hooks and sends the same buffer out of the port the
// exit names, with CgnEngine as translator, every frame sent at once,
// and no stall or FORWARD chain. Only what the hooks decline climbs the
// host stack: the CGN's own traffic.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gateway/forwarder.hpp"
#include "gateway/nat_engine.hpp"
#include "gateway/profile.hpp"

namespace gatekit::gateway {

/// RFC 6888 inherits RFC 4787 REQ-5's 120 s floor for UDP mapping
/// timers; the defaults sit exactly there, so the NAT444 effective
/// timeout min(home, cgn) clips every calibrated device above 120 s.
inline UdpTimerPolicy cgn_udp_defaults() {
    UdpTimerPolicy p;
    p.initial = std::chrono::seconds(120);
    p.inbound_refresh = std::chrono::seconds(120);
    p.outbound_refresh = std::chrono::seconds(120);
    return p;
}

/// Operator-chosen CGN deployment parameters.
struct CgnConfig {
    /// External port pool (shared by every subscriber).
    std::uint16_t pool_begin = 1024;
    std::uint16_t pool_end = 65534;
    /// Ports per subscriber block (RFC 7422 deterministic NAT): each
    /// subscriber address maps to a fixed block, computable offline, so
    /// the operator needs no per-flow logging. 0 = one shared pool —
    /// first-come allocation where a single churning subscriber can
    /// exhaust everyone's ports (the ReDAN exhaustion victim).
    std::uint16_t block_size = 2048;
    /// Endpoint-independent mapping (RFC 4787 REQ-1): all flows from one
    /// subscriber endpoint share one external port, which is what makes
    /// hole punching through the CGN layer possible. false = endpoint-
    /// dependent (symmetric) mapping — every flow draws a fresh port.
    bool eim = true;
    /// RFC 6888 REQ-9: hairpin subscriber-to-subscriber traffic sent to
    /// the external address.
    bool hairpin = true;
    /// UDP binding timers (see cgn_udp_defaults above).
    UdpTimerPolicy udp = cgn_udp_defaults();
    sim::Duration tcp_established_timeout{std::chrono::hours(2)};
    sim::Duration tcp_transitory_timeout{std::chrono::minutes(4)};
    sim::Duration tcp_fin_linger{std::chrono::seconds(10)};
    /// Per-subscriber concurrent-binding cap per transport. 0 = bounded
    /// by the block span (block mode) or the whole pool (shared mode).
    int max_bindings = 0;
};

/// The translation core. Pure packet-in/bytes-out like NatEngine (which
/// translates for it); the CgnGateway below owns the wires.
class CgnEngine {
public:
    CgnEngine(sim::EventLoop& loop, CgnConfig cfg);

    /// `access_addr/prefix` is the subscriber-facing subnet; packets
    /// sourced outside it are not translated. `external_addr` is the
    /// single ISP-facing address every subscriber is multiplexed onto.
    void set_addresses(net::Ipv4Addr access_addr, int access_prefix_len,
                       net::Ipv4Addr external_addr);
    bool configured() const { return !external_addr_.is_unspecified(); }
    net::Ipv4Addr external_addr() const { return external_addr_; }
    const CgnConfig& config() const { return cfg_; }

    /// Subscriber -> deterministic port block (RFC 7422): block index is
    /// host-id modulo block count, so it is computable offline from the
    /// address alone. nullopt in shared-pool mode.
    struct BlockInfo {
        int index = 0;
        std::uint16_t begin = 0;
        std::uint16_t end = 0;
    };
    std::optional<BlockInfo> block_of(net::Ipv4Addr subscriber) const;
    int num_blocks() const;

    /// Translate a subscriber datagram in place. Every refusal (an
    /// expiring TTL, which the caller answers, policy, a block
    /// collision, exhaustion) is kDropped; outbound is never kNotOurs.
    NatEngine::Verdict outbound(net::PacketView& v);
    /// Translate a WAN datagram in place. kNotOurs leaves the bytes
    /// untouched for the CGN's own stack: not addressed to the external
    /// address, outside the pool, or claimed by no binding.
    NatEngine::Verdict inbound(net::PacketView& v);
    /// Subscriber-to-subscriber traffic addressed to the external
    /// address, rewritten in place (UDP only, like the consumer devices'
    /// hairpin). False, with the bytes untouched, when nothing hairpins.
    bool hairpin(net::PacketView& v);

    /// Live bindings a subscriber currently holds (UDP + TCP).
    std::size_t live_bindings(net::Ipv4Addr subscriber);

    /// The translator serving `subscriber`'s block (the shared pool's in
    /// shared mode); nullptr until its first packet, or when the block
    /// belongs to another subscriber.
    const NatEngine* engine_for(net::Ipv4Addr subscriber) const;

    /// Drop all translation state (maintenance restart).
    void flush();

    struct Stats {
        std::uint64_t translated_out = 0;
        std::uint64_t translated_in = 0;
        /// find_or_create refused: port block / shared pool dry, or the
        /// per-subscriber cap hit.
        std::uint64_t pool_exhausted = 0;
        /// Subscriber refused because its deterministic block is already
        /// owned by a different address (over-subscribed modulus).
        std::uint64_t block_collisions = 0;
        std::uint64_t dropped_no_binding = 0;
        std::uint64_t dropped_policy = 0;
        std::uint64_t icmp_relayed = 0;
        std::uint64_t icmp_dropped = 0;
        std::uint64_t hairpinned = 0;
    };
    const Stats& stats() const { return stats_; }

private:
    /// One port block's translation state. In shared-pool mode a single
    /// instance (the full pool) carries every subscriber — FlowKey
    /// internals keep them apart, but they compete for ports.
    struct Slice {
        net::Ipv4Addr owner; ///< unspecified in shared mode
        DeviceProfile prof;  ///< stable: the engine holds a reference
        NatEngine nat;
        Slice(sim::EventLoop& loop, net::Ipv4Addr a, DeviceProfile p,
              net::Ipv4Addr external)
            : owner(a), prof(std::move(p)), nat(loop, prof) {
            nat.set_wan_addr(external);
        }
    };

    Slice* slice_for_subscriber(net::Ipv4Addr src);
    Slice* slice_for_port(std::uint16_t external_port);
    DeviceProfile make_profile(std::uint16_t begin, std::uint16_t end) const;
    bool on_access_subnet(net::Ipv4Addr a) const {
        return a.same_subnet(access_addr_, access_prefix_len_);
    }

    /// An error a subscriber sends quotes the inbound packet as the
    /// subscriber saw it; rewrite the quote's destination half to the
    /// external view and recompute the ICMP checksum. False when `icmp`
    /// is no error.
    bool quote_external_view(std::span<std::uint8_t> icmp);
    /// The engine an inbound ICMP message belongs to: an error quoting
    /// UDP/TCP goes to the slice owning the quoted port (nullptr: none),
    /// anything else to the echo-query engine.
    NatEngine* icmp_engine(std::span<const std::uint8_t> icmp);

    sim::EventLoop& loop_;
    CgnConfig cfg_;
    net::Ipv4Addr access_addr_;
    int access_prefix_len_ = 24;
    net::Ipv4Addr external_addr_;

    /// Block index -> slice (created on first use); shared mode uses
    /// blocks_[0] as the single full-pool slice.
    std::vector<std::unique_ptr<Slice>> blocks_;
    /// The carrier's echo queries (full-pool profile, created with the
    /// addresses).
    std::unique_ptr<Slice> queries_;

    Stats stats_;
};

/// The deployable middle box: a Forwarder whose inside port faces the
/// access network (it runs the access network's DHCP server, handing
/// each home gateway its WAN lease) and whose WAN port leases the
/// external address from the ISP, with a CgnEngine as its translator.
/// No FwdPath: carrier boxes forward at line rate relative to the CPE
/// devices under study, so a frame leaves as soon as it is translated.
class CgnGateway {
public:
    struct Config {
        CgnConfig cgn;
        net::Ipv4Addr access_addr{100, 64, 0, 1}; ///< RFC 6598 space
        int access_prefix_len = 24;
        net::Ipv4Addr access_pool_base{100, 64, 0, 100};
        std::uint32_t mac_index = 5000;
    };

    CgnGateway(sim::EventLoop& loop, Config config);

    CgnGateway(const CgnGateway&) = delete;
    CgnGateway& operator=(const CgnGateway&) = delete;

    void connect_access(sim::Link& link, sim::Link::Side side) {
        forwarder_.connect(Port::kInside, link, side);
    }
    void connect_wan(sim::Link& link, sim::Link::Side side) {
        forwarder_.connect(Port::kWan, link, side);
    }

    /// Bring the box up: WAN DHCP first; once the external address is
    /// leased the access-side DHCP server starts serving subscriber
    /// (home-gateway WAN) leases, passing the ISP's resolver through
    /// (subscriber gateways already proxy DNS for their LANs), and the
    /// engine configures.
    void start(std::function<void(net::Ipv4Addr)> on_ready = {});

    bool ready() const { return engine_.configured(); }
    net::Ipv4Addr access_addr() const { return config_.access_addr; }
    net::Ipv4Addr external_addr() const { return engine_.external_addr(); }

    stack::Host& host() { return forwarder_.host(); }
    CgnEngine& engine() { return engine_; }

private:
    // The policy Forwarder's frame hooks call (see forwarder.hpp). A
    // CGN translates toward its external address and does not
    // transit-route: WAN datagrams for other destinations are its own.
    friend class Forwarder;
    static constexpr bool stalled() { return false; }
    CgnEngine& translator() { return engine_; }
    static constexpr bool admit(const net::PacketView&) { return true; }
    void forward(sim::Frame frame, net::Ipv4Addr dst, Port out) {
        forwarder_.emit(std::move(frame), dst, out);
    }

    Config config_;
    Forwarder forwarder_;
    CgnEngine engine_;
};

} // namespace gatekit::gateway
