// A Linux-like end host: interfaces, longest-prefix routing, ICMP, and
// transport demux for UDP, TCP, SCTP and DCCP. Both testbed hosts (test
// client, test server) and the gateways' control planes are Hosts; the
// gateways forward on their NIC frame hooks, the test server through a
// forwarding hook. A received datagram stays the net::PacketView its
// interface parsed, aliasing the frame, from the interface up to every
// socket and observer. Every datagram it sends is written in place into
// one frame by one sender, send_datagram.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/icmp.hpp"
#include "net/tcp_header.hpp"
#include "net/ipv4.hpp"
#include "net/packet_view.hpp"
#include "net/route_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stack/netif.hpp"
#include "stack/tcp_socket.hpp"

namespace gatekit::stack {

class UdpSocket;
class SctpEndpoint;
class DccpEndpoint;

/// Routing table entry (longest prefix wins; ties broken by insertion
/// order, earliest first).
struct Route {
    net::Ipv4Addr prefix;
    int prefix_len = 0;
    Iface* iface = nullptr;
    std::optional<net::Ipv4Addr> via; ///< next-hop gateway; nullopt = on-link
};

class Host {
public:
    Host(sim::EventLoop& loop, std::string name, net::MacAddr mac);
    ~Host();

    Host(const Host&) = delete;
    Host& operator=(const Host&) = delete;

    const std::string& name() const { return name_; }
    sim::EventLoop& loop() { return loop_; }

    /// The host's first (default) physical port.
    NetIf& nic() { return *nics_.front(); }

    /// Add another physical port (home gateways have LAN + WAN ports).
    NetIf& add_nic(net::MacAddr mac);

    /// Create a subinterface on the default NIC and register it with the
    /// host's IP input path.
    Iface& add_iface(std::optional<std::uint16_t> vlan = std::nullopt);

    /// Create a subinterface on a specific NIC.
    Iface& add_iface_on(NetIf& nic,
                        std::optional<std::uint16_t> vlan = std::nullopt);

    // --- routing -----------------------------------------------------
    void add_route(net::Ipv4Addr prefix, int prefix_len, Iface& iface,
                   std::optional<net::Ipv4Addr> via = std::nullopt);
    void remove_routes_via(const Iface& iface);
    const Route* lookup_route(net::Ipv4Addr dst) const;

    /// Inject pre-serialized datagram bytes out of a specific interface
    /// (used by probes that forge packets, bypassing routing).
    void send_raw(Iface& iface, net::Bytes datagram, net::Ipv4Addr next_hop);

    // --- transports ----------------------------------------------------
    /// Open a UDP socket. `local_port == 0` picks an ephemeral port.
    /// `iface` binds the socket for broadcast sends (DHCP needs this).
    UdpSocket& udp_open(net::Ipv4Addr local_addr, std::uint16_t local_port,
                        Iface* iface = nullptr);
    void udp_close(UdpSocket& sock);

    /// Active TCP open. `local_port == 0` picks an ephemeral port.
    TcpSocket& tcp_connect(net::Ipv4Addr local_addr,
                           std::uint16_t local_port, net::Endpoint remote);
    /// Passive TCP open on all local addresses.
    TcpListener& tcp_listen(std::uint16_t port);
    void tcp_close_listener(TcpListener& lst);
    /// Destroy a socket immediately (no FIN/RST); for harness cleanup.
    void tcp_destroy(TcpSocket& sock);

    SctpEndpoint& sctp_open(net::Ipv4Addr local_addr,
                            std::uint16_t local_port);
    void sctp_close(SctpEndpoint& ep);
    DccpEndpoint& dccp_open(net::Ipv4Addr local_addr,
                            std::uint16_t local_port);
    void dccp_close(DccpEndpoint& ep);

    // --- ICMP ----------------------------------------------------------
    /// Send an ICMP message (routed by dst).
    void send_icmp(net::Ipv4Addr src, net::Ipv4Addr dst,
                   const net::IcmpMessage& msg, std::uint8_t ttl = 64);

    /// Observe every ICMP message this host receives (after the echo
    /// responder): the outer datagram and the parsed ICMP. ICMP errors
    /// reach no socket; this observer is where they are read. The view
    /// aliases the received frame and is valid only during the call.
    using IcmpObserver = std::function<void(const net::PacketView&,
                                            const net::IcmpMessage&)>;
    void set_icmp_observer(IcmpObserver obs) { icmp_observer_ = std::move(obs); }

    /// Observe every IP datagram delivered locally, fragments included
    /// (diagnostics/probes). The view and `raw` (the frame payload, which
    /// link padding can make longer than the view's total_len()) are
    /// valid only during the call.
    using IpObserver = std::function<void(Iface&, const net::PacketView&,
                                          std::span<const std::uint8_t>)>;
    void set_ip_observer(IpObserver obs) { ip_observer_ = std::move(obs); }

    /// Forwarding hook: invoked for datagrams that arrive addressed to
    /// some other host, with the view and the frame payload as
    /// Iface::IpHandler has them. Default behavior without a hook is to
    /// drop, as hosts do not forward.
    using ForwardHook = std::function<void(Iface&, const net::PacketView&,
                                           std::span<const std::uint8_t>)>;
    void set_forward_hook(ForwardHook hook) { forward_hook_ = std::move(hook); }

    /// Whether this host answers ICMP echo and emits ICMP errors.
    void set_icmp_enabled(bool on) { icmp_enabled_ = on; }

    std::uint16_t alloc_ephemeral_port();

    /// Register host-level transport counters (TCP retransmits, stale-SYN
    /// re-ACKs) labeled with this host's name, and hand the host's TCP
    /// sockets a tracer for retransmit events. Either argument may be
    /// null/omitted; instrumentation stays branch-on-null until bound.
    void bind_observability(obs::MetricsRegistry* reg,
                            obs::Tracer* tracer = nullptr);

    /// True when `addr` is one of this host's interface addresses.
    bool is_local_addr(net::Ipv4Addr addr) const;

private:
    friend class UdpSocket;
    friend class TcpSocket;
    friend class TcpListener;
    friend class SctpEndpoint;
    friend class DccpEndpoint;

    /// A datagram as its transport describes it. An unspecified `src`
    /// takes the egress's address; `bound` is an SO_BINDTODEVICE iface.
    struct Datagram {
        std::uint8_t protocol = 0;
        net::Ipv4Addr src;
        net::Ipv4Addr dst;
        std::uint8_t ttl = 64;
        std::span<const std::uint8_t> options{};
        Iface* bound = nullptr;
    };
    /// A frame with its IPv4 header written and `l4` left to fill.
    struct Outgoing {
        net::Bytes frame;
        std::span<std::uint8_t> l4;
        net::Ipv4Addr src;
        Iface* iface = nullptr; ///< egress; nullptr = loopback
        net::Ipv4Addr next_hop;
    };

    /// The sender of every datagram this host originates: decide the
    /// egress (rules in open_datagram), write the IPv4 header into a frame
    /// from the egress NIC's pool, let `fill(l4, src)` write the `l4_len`
    /// transport bytes in place (`src` final, for pseudo-header
    /// checksums), and transmit. False, writing nothing, if it can't leave.
    template <class Fill>
    bool send_datagram(const Datagram& d, std::size_t l4_len, Fill&& fill) {
        Outgoing out;
        if (!open_datagram(d, l4_len, out)) return false;
        fill(out.l4, out.src);
        transmit(out);
        return true;
    }
    /// send_datagram for transport bytes that do not depend on the source.
    bool send_datagram(const Datagram& d, std::span<const std::uint8_t> l4);
    /// Decide `d`'s egress and write its IPv4 header into `out`'s frame;
    /// false when it cannot leave.
    bool open_datagram(const Datagram& d, std::size_t l4_len,
                       Outgoing& out);
    /// Onto the wire, or, same-host, delivered as the next event.
    void transmit(Outgoing& out);

    void on_ip(Iface& iface, const net::PacketView& view,
               std::span<const std::uint8_t> raw);
    /// Local delivery: the IP observer sees every datagram, then each
    /// transport is demuxed from `view`. Fragments stop after the
    /// observer (no reassembly).
    void deliver_local(Iface& iface, const net::PacketView& view,
                       std::span<const std::uint8_t> raw);
    /// The route a datagram from `src` (unspecified: any) to `dst`
    /// leaves by, or nullptr when there is none or its iface is
    /// unconfigured. When several interfaces carry the winning prefix,
    /// a bound source address picks the one that owns it.
    const Route* egress_route(net::Ipv4Addr src, net::Ipv4Addr dst) const;
    void handle_icmp(Iface& iface, const net::PacketView& view);
    void handle_udp(Iface& iface, const net::PacketView& view);
    void handle_tcp(const net::PacketView& view);
    void handle_sctp(const net::PacketView& view);
    void handle_dccp(const net::PacketView& view);
    /// Answer `offending` with an ICMP error quoting it as it arrived.
    /// Nothing is sent about a datagram from an unspecified or broadcast
    /// source or to a broadcast destination.
    void send_icmp_error(const net::PacketView& offending,
                         net::IcmpType type, std::uint8_t code);
    /// Answer `seg`, which arrived from `remote` for `local` and found no
    /// connection or listener, with a RST.
    void send_tcp_rst(net::Ipv4Addr local, net::Ipv4Addr remote,
                      const net::TcpSegmentView& seg);
    /// Remove a finished connection from the table (deferred from socket
    /// state transitions so handlers never delete a live socket).
    void tcp_reap(net::Endpoint local, net::Endpoint remote);

    /// Re-index the LPM trie from routes_ (route removal shifts slab
    /// indexes, so bulk removals rebuild rather than patch).
    void reindex_routes();
    /// The route for the same prefix as `best` through the interface
    /// configured with `src`, or nullptr when that interface has none.
    const Route* same_prefix_route_from(net::Ipv4Addr src,
                                        const Route& best) const;

    sim::EventLoop& loop_;
    std::string name_;
    std::vector<std::unique_ptr<NetIf>> nics_;
    std::vector<Iface*> ifaces_;
    // Route slab + binary-trie LPM index over it. The trie maps a
    // masked (prefix, len) key to the slab index of the selected route;
    // duplicate keys keep the earliest slab entry, preserving the
    // documented "ties broken by insertion order" contract.
    std::vector<Route> routes_;
    net::RouteTable route_index_;
    // Two-entry lookup cache (dst -> slab index), most recent first, so
    // both directions of a forwarded flow hit. Any route mutation empties
    // both entries; idx kNoValue = empty. Misses are never cached, so a
    // route added later for a previously-missing dst is found.
    struct RouteCacheEntry {
        net::Ipv4Addr dst;
        std::int32_t idx = net::RouteTable::kNoValue;
    };
    mutable std::array<RouteCacheEntry, 2> route_cache_{};
    void invalidate_route_cache() { route_cache_ = {}; }
    std::vector<std::unique_ptr<UdpSocket>> udp_socks_;
    std::map<std::pair<net::Endpoint, net::Endpoint>,
             std::unique_ptr<TcpSocket>>
        tcp_conns_; ///< key: (local, remote)
    std::map<std::uint16_t, std::unique_ptr<TcpListener>> tcp_listeners_;
    std::vector<std::unique_ptr<SctpEndpoint>> sctp_eps_;
    std::vector<std::unique_ptr<DccpEndpoint>> dccp_eps_;
    IcmpObserver icmp_observer_;
    IpObserver ip_observer_;
    ForwardHook forward_hook_;
    bool icmp_enabled_ = true;
    std::uint16_t next_ephemeral_ = 33000;
    std::uint16_t ip_id_ = 1;

    // Instrumentation shared by this host's TCP sockets; nullptr until
    // bind_observability.
    obs::Counter* m_tcp_retransmits_ = nullptr;
    obs::Counter* m_tcp_stale_syn_ = nullptr;
    obs::Tracer* tracer_ = nullptr;
};

} // namespace gatekit::stack
