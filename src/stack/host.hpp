// A Linux-like end host: interfaces, longest-prefix routing, ICMP, and
// transport demux for UDP, TCP, SCTP and DCCP. Both testbed hosts (test
// client, test server) and the home gateway's control plane are Hosts;
// the gateway adds a forwarding hook for its NAT datapath.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/icmp.hpp"
#include "net/tcp_header.hpp"
#include "net/ipv4.hpp"
#include "net/route_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stack/netif.hpp"

namespace gatekit::stack {

class UdpSocket;
class TcpSocket;
class TcpListener;
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

    /// Route and send a datagram. Fills in the source address from the
    /// egress interface when unset. When several interfaces carry the
    /// winning prefix, a bound source address picks the one that owns
    /// it. Returns false when no route exists or the egress interface is
    /// unconfigured.
    bool send_ip(net::Ipv4Packet pkt);

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
    /// responder). Outer IP packet + parsed ICMP.
    using IcmpObserver = std::function<void(const net::Ipv4Packet&,
                                            const net::IcmpMessage&)>;
    void set_icmp_observer(IcmpObserver obs) { icmp_observer_ = std::move(obs); }

    /// Observe every IP datagram delivered locally (diagnostics/probes).
    using IpObserver = std::function<void(Iface&, const net::Ipv4Packet&,
                                          std::span<const std::uint8_t>)>;
    void set_ip_observer(IpObserver obs) { ip_observer_ = std::move(obs); }

    /// Forwarding hook: invoked for datagrams that arrive addressed to
    /// some other host. Default behavior without a hook is to drop, as
    /// hosts do not forward.
    using ForwardHook = std::function<void(Iface&, const net::Ipv4Packet&,
                                           std::span<const std::uint8_t>)>;
    void set_forward_hook(ForwardHook hook) { forward_hook_ = std::move(hook); }

    /// Pre-delivery intercept for datagrams addressed to this host.
    /// Returning true consumes the packet. A NAT uses this on its WAN
    /// interface: inbound packets for active bindings are addressed to
    /// the WAN address, yet must be translated rather than delivered.
    using LocalIntercept = std::function<bool(Iface&, const net::Ipv4Packet&,
                                              std::span<const std::uint8_t>)>;
    void set_local_intercept(LocalIntercept fn) {
        local_intercept_ = std::move(fn);
    }

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

    void on_ip(Iface& iface, const net::PacketView& view,
               std::span<const std::uint8_t> raw);
    /// Local delivery. TCP is demuxed straight from `view`; everything
    /// else, and every hook or observer, gets an owning Ipv4Packet.
    void deliver_local(Iface& iface, const net::PacketView& view,
                       std::span<const std::uint8_t> raw);
    /// Deliver a datagram this host addressed to itself, as the next
    /// event (same-host traffic never touches the wire).
    void deliver_loopback(net::Bytes datagram);
    /// The route a datagram from `src` (unspecified: any) to `dst`
    /// leaves by, or nullptr when there is none or its iface is
    /// unconfigured. When several interfaces carry the winning prefix,
    /// a bound source address picks the one that owns it.
    const Route* egress_route(net::Ipv4Addr src, net::Ipv4Addr dst) const;
    void handle_icmp(Iface& iface, const net::Ipv4Packet& pkt);
    void handle_udp(Iface& iface, const net::Ipv4Packet& pkt);
    void handle_tcp(const net::PacketView& view);
    void handle_sctp(Iface& iface, const net::Ipv4Packet& pkt);
    void handle_dccp(Iface& iface, const net::Ipv4Packet& pkt);
    void send_icmp_error(const net::Ipv4Packet& offending,
                         net::IcmpType type, std::uint8_t code);
    /// Answer `seg`, which arrived from `remote` for `local` and found no
    /// connection or listener, with a RST.
    void send_tcp_rst(net::Ipv4Addr local, net::Ipv4Addr remote,
                      const net::TcpSegmentView& seg);
    /// Remove a finished connection from the table (deferred from socket
    /// state transitions so handlers never delete a live socket).
    void tcp_reap(net::Endpoint local, net::Endpoint remote);
    /// Route ICMP errors to the transport socket they concern.
    void dispatch_icmp_to_transport(const net::Ipv4Packet& outer,
                                    const net::IcmpMessage& msg);

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
    // One-entry lookup cache (dst -> slab index), invalidated by any
    // route mutation. kNoValue = empty; misses are never cached, so a
    // route added later for a previously-missing dst is found.
    mutable net::Ipv4Addr route_cache_dst_;
    mutable std::int32_t route_cache_idx_ = net::RouteTable::kNoValue;
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
    LocalIntercept local_intercept_;
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
