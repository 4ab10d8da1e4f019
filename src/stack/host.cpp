#include "stack/host.hpp"

#include <utility>

#include "net/dccp.hpp"
#include "net/sctp.hpp"
#include "net/udp.hpp"
#include "stack/dccp_endpoint.hpp"
#include "stack/sctp_endpoint.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"
#include "util/assert.hpp"

namespace gatekit::stack {

Host::Host(sim::EventLoop& loop, std::string name, net::MacAddr mac)
    : loop_(loop), name_(std::move(name)) {
    nics_.push_back(std::make_unique<NetIf>(loop, mac));
}

Host::~Host() = default;

NetIf& Host::add_nic(net::MacAddr mac) {
    nics_.push_back(std::make_unique<NetIf>(loop_, mac));
    return *nics_.back();
}

Iface& Host::add_iface(std::optional<std::uint16_t> vlan) {
    return add_iface_on(nic(), vlan);
}

Iface& Host::add_iface_on(NetIf& nic, std::optional<std::uint16_t> vlan) {
    Iface& iface = nic.add_iface(vlan);
    iface.set_ip_handler([this, &iface](const net::PacketView& view,
                                        std::span<const std::uint8_t> raw) {
        on_ip(iface, view, raw);
    });
    ifaces_.push_back(&iface);
    return iface;
}

void Host::add_route(net::Ipv4Addr prefix, int prefix_len, Iface& iface,
                     std::optional<net::Ipv4Addr> via) {
    GK_EXPECTS(prefix_len >= 0 && prefix_len <= 32);
    routes_.push_back(Route{prefix, prefix_len, &iface, via});
    // A duplicate (prefix, len) insert returns false and keeps the
    // earlier slab index — insertion-order tie-break preserved.
    route_index_.insert(prefix, prefix_len,
                        static_cast<std::int32_t>(routes_.size() - 1));
    invalidate_route_cache();
}

void Host::remove_routes_via(const Iface& iface) {
    const auto removed = std::erase_if(
        routes_, [&](const Route& r) { return r.iface == &iface; });
    if (removed != 0) reindex_routes();
}

void Host::reindex_routes() {
    route_index_.clear();
    invalidate_route_cache();
    for (std::size_t i = 0; i < routes_.size(); ++i)
        route_index_.insert(routes_[i].prefix, routes_[i].prefix_len,
                            static_cast<std::int32_t>(i));
}

const Route* Host::lookup_route(net::Ipv4Addr dst) const {
    // Forwarding workloads look up the two directions of one flow in
    // turn, and the trie walk, cheap as it is, sits on the packet fast
    // path. A miss moves the newer entry down and takes the front.
    for (const RouteCacheEntry& e : route_cache_)
        if (e.idx != net::RouteTable::kNoValue && e.dst == dst)
            return &routes_[static_cast<std::size_t>(e.idx)];
    const std::int32_t idx = route_index_.lookup(dst);
    if (idx == net::RouteTable::kNoValue) return nullptr;
    route_cache_[1] = route_cache_[0];
    route_cache_[0] = {dst, idx};
    return &routes_[static_cast<std::size_t>(idx)];
}

const Route* Host::same_prefix_route_from(net::Ipv4Addr src,
                                          const Route& best) const {
    for (const Route& r : routes_)
        if (r.prefix_len == best.prefix_len &&
            r.prefix.same_subnet(best.prefix, best.prefix_len) &&
            r.iface->configured() && r.iface->addr() == src)
            return &r;
    return nullptr;
}

const Route* Host::egress_route(net::Ipv4Addr src,
                                net::Ipv4Addr dst) const {
    const Route* route = lookup_route(dst);
    // Several interfaces may carry the same prefix (every gateway behind
    // one CGN reaches the CGN's uplink subnet) and the index keeps only
    // the first, so a bound source address takes the tie to the
    // interface that owns it.
    if (route != nullptr && !src.is_unspecified() &&
        route->iface->addr() != src)
        if (const Route* own = same_prefix_route_from(src, *route))
            route = own;
    if (route == nullptr || !route->iface->configured()) return nullptr;
    return route;
}

bool Host::open_datagram(const Datagram& d, std::size_t l4_len,
                         Outgoing& out) {
    std::uint16_t id = 0;
    if (d.dst.is_broadcast() ||
        (d.bound != nullptr && d.bound->configured())) {
        // A bound interface sends without the routing table: broadcast
        // (only this way) from its address or, unconfigured, 0.0.0.0 as
        // DHCP DISCOVER does; unicast on-link directly, else via its
        // gateway, so hole-punching peers traverse their own NAT.
        if (d.bound == nullptr) return false;
        out.iface = d.bound;
        out.src = d.bound->configured() ? d.bound->addr() : net::Ipv4Addr{};
        const bool direct = d.dst.is_broadcast() ||
                            d.dst.same_subnet(out.src, d.bound->prefix_len());
        out.next_hop = direct ? d.dst : d.bound->gateway();
        if (out.next_hop.is_unspecified()) return false;
    } else {
        // Routed: the source is `src` or the egress interface's address.
        // Same-host traffic stays off the wire and takes no IP id; it
        // needs a route only to pick an unspecified source.
        const bool loopback = is_local_addr(d.dst);
        out.src = d.src;
        if (!loopback || out.src.is_unspecified()) {
            const Route* route = egress_route(out.src, d.dst);
            if (route == nullptr) return false;
            if (out.src.is_unspecified()) out.src = route->iface->addr();
            if (!loopback) {
                out.iface = route->iface;
                out.next_hop = route->via.value_or(d.dst);
                id = ip_id_++;
            }
        }
    }

    const std::size_t ip_len = net::ipv4_header_len(d.options.size()) + l4_len;
    const bool wire = out.iface != nullptr;
    out.frame = wire ? out.iface->make_frame(ip_len, net::kEtherTypeIpv4)
                     : net::Bytes(ip_len);
    const std::size_t at = wire ? out.iface->l2_header_len() : 0;
    net::Ipv4Header h;
    h.id = id;
    h.ttl = d.ttl;
    h.protocol = d.protocol;
    h.src = out.src;
    h.dst = d.dst;
    const auto ip = std::span(out.frame).subspan(at, ip_len);
    out.l4 = ip.subspan(net::write_ipv4_header(ip, h, d.options));
    return true;
}

void Host::transmit(Outgoing& out) {
    if (out.iface != nullptr) {
        out.iface->send_frame(std::move(out.frame), out.next_hop);
        return;
    }
    GK_ASSERT(!ifaces_.empty());
    loop_.after(sim::Duration::zero(),
                [this, raw = std::move(out.frame)]() mutable {
                    deliver_local(*ifaces_.front(), net::PacketView::of(raw),
                                  raw);
                });
}

bool Host::send_datagram(const Datagram& d,
                         std::span<const std::uint8_t> l4) {
    return send_datagram(d, l4.size(),
                         [l4](std::span<std::uint8_t> out, net::Ipv4Addr) {
                             std::copy(l4.begin(), l4.end(), out.begin());
                         });
}

void Host::send_raw(Iface& iface, net::Bytes datagram,
                    net::Ipv4Addr next_hop) {
    iface.send_ip_raw(std::move(datagram), next_hop);
}

bool Host::is_local_addr(net::Ipv4Addr addr) const {
    for (const Iface* iface : ifaces_)
        if (iface->configured() && iface->addr() == addr) return true;
    return false;
}

void Host::bind_observability(obs::MetricsRegistry* reg, obs::Tracer* tracer) {
    tracer_ = tracer;
    if (reg == nullptr) return;
    const auto labels = reg->label_set({{"device", name_}});
    m_tcp_retransmits_ = reg->counter("tcp.retransmits", labels);
    m_tcp_stale_syn_ = reg->counter("tcp.stale_syn_reacks", labels);
}

std::uint16_t Host::alloc_ephemeral_port() {
    // Skip ports below the ephemeral range and wrap; collisions across
    // protocols are harmless (separate demux spaces).
    if (next_ephemeral_ < 33000) next_ephemeral_ = 33000;
    return next_ephemeral_++;
}

void Host::on_ip(Iface& iface, const net::PacketView& view,
                 std::span<const std::uint8_t> raw) {
    const bool local = view.dst().is_broadcast() || is_local_addr(view.dst());
    if (!local) {
        if (forward_hook_) forward_hook_(iface, view, raw);
        return; // hosts do not forward
    }
    deliver_local(iface, view, raw);
}

void Host::deliver_local(Iface& iface, const net::PacketView& view,
                         std::span<const std::uint8_t> raw) {
    if (ip_observer_) ip_observer_(iface, view, raw);
    // Hosts do not reassemble, and a fragment is no datagram a
    // transport can take (nor one to answer with an error).
    if (view.is_fragment()) return;
    switch (view.protocol()) {
    case net::proto::kIcmp:
        handle_icmp(iface, view);
        break;
    case net::proto::kUdp:
        handle_udp(iface, view);
        break;
    case net::proto::kTcp:
        handle_tcp(view);
        break;
    case net::proto::kSctp:
        handle_sctp(view);
        break;
    case net::proto::kDccp:
        handle_dccp(view);
        break;
    default:
        if (icmp_enabled_)
            send_icmp_error(view, net::IcmpType::DestUnreachable,
                            net::icmp_code::kProtoUnreachable);
        break;
    }
}

void Host::handle_icmp(Iface& iface, const net::PacketView& view) {
    net::IcmpMessage msg;
    try {
        msg = net::IcmpMessage::parse(view.payload());
    } catch (const net::ParseError&) {
        return;
    }
    if (!msg.checksum_ok) return;

    if (msg.type == net::IcmpType::Echo && icmp_enabled_) {
        net::IcmpMessage reply = net::IcmpMessage::make_echo(
            true, msg.echo_id(), msg.echo_seq(), msg.payload);
        send_icmp(iface.addr(), view.src(), reply);
    }
    if (icmp_observer_) icmp_observer_(view, msg);
}

void Host::handle_udp(Iface& iface, const net::PacketView& view) {
    net::UdpDatagram dgram;
    try {
        dgram =
            net::UdpDatagram::parse(view.payload(), view.src(), view.dst());
    } catch (const net::ParseError&) {
        return;
    }
    if (!dgram.checksum_ok) return;

    for (auto& sock : udp_socks_) {
        if (sock->closed_) continue;
        const auto local = sock->local();
        if (local.port != dgram.dst_port) continue;
        const bool addr_match = local.addr.is_unspecified() ||
                                local.addr == view.dst() ||
                                view.dst().is_broadcast();
        if (!addr_match) continue;
        // Iface-bound sockets only see traffic from their interface.
        if (sock->iface_ != nullptr && sock->iface_ != &iface) continue;
        sock->deliver({view.src(), dgram.src_port}, dgram.payload, view);
        return;
    }
    if (icmp_enabled_)
        send_icmp_error(view, net::IcmpType::DestUnreachable,
                        net::icmp_code::kPortUnreachable);
}

void Host::handle_tcp(const net::PacketView& view) {
    const auto seg =
        net::TcpSegmentView::parse(view.payload(), view.src(), view.dst());
    if (!seg || !seg->checksum_ok) return;

    const net::Endpoint local{view.dst(), seg->dst_port};
    const net::Endpoint remote{view.src(), seg->src_port};
    auto it = tcp_conns_.find({local, remote});
    if (it != tcp_conns_.end()) {
        it->second->on_segment(*seg);
        // Finished sockets schedule their own reaping.
        return;
    }

    // No connection: a listener may take a SYN.
    auto lit = tcp_listeners_.find(seg->dst_port);
    if (lit != tcp_listeners_.end() && seg->flags.syn && !seg->flags.ack) {
        auto sock = std::unique_ptr<TcpSocket>(new TcpSocket(
            *this, local, remote, /*active=*/false,
            /*iss=*/static_cast<std::uint32_t>(0x40000000u + ip_id_ * 7919u)));
        TcpSocket* raw = sock.get();
        TcpListener* listener = lit->second.get();
        tcp_conns_[{local, remote}] = std::move(sock);
        raw->on_established = [listener, raw] {
            if (listener->on_accept_) listener->on_accept_(*raw);
        };
        raw->start_passive(seg->seq);
        return;
    }

    if (!seg->flags.rst) send_tcp_rst(view.dst(), view.src(), *seg);
}

void Host::handle_sctp(const net::PacketView& view) {
    net::SctpPacket sp;
    try {
        sp = net::SctpPacket::parse(view.payload());
    } catch (const net::ParseError&) {
        return;
    }
    if (!sp.crc_ok) return;
    for (auto& ep : sctp_eps_) {
        if (ep->local_port_ != sp.dst_port) continue;
        if (!ep->local_addr_.is_unspecified() && ep->local_addr_ != view.dst())
            continue;
        ep->on_packet(sp, view.src());
        return;
    }
    // RFC 4960 would ABORT here; for the study, silence is equivalent.
}

void Host::handle_dccp(const net::PacketView& view) {
    net::DccpPacket dp;
    try {
        dp = net::DccpPacket::parse(view.payload(), view.src(), view.dst());
    } catch (const net::ParseError&) {
        return;
    }
    if (!dp.checksum_ok) return; // pseudo-header mismatch lands here
    for (auto& ep : dccp_eps_) {
        if (ep->local_port_ != dp.dst_port) continue;
        if (!ep->local_addr_.is_unspecified() && ep->local_addr_ != view.dst())
            continue;
        ep->on_packet(dp, view.src());
        return;
    }
}

void Host::send_icmp(net::Ipv4Addr src, net::Ipv4Addr dst,
                     const net::IcmpMessage& msg, std::uint8_t ttl) {
    send_datagram(
        {.protocol = net::proto::kIcmp, .src = src, .dst = dst, .ttl = ttl},
        msg.serialize());
}

void Host::send_icmp_error(const net::PacketView& offending,
                           net::IcmpType type, std::uint8_t code) {
    // RFC 1122 §3.2.2: never about a datagram from no single host or to a
    // broadcast address.
    if (offending.src().is_unspecified() || offending.src().is_broadcast() ||
        offending.dst().is_broadcast())
        return;
    const auto err = net::IcmpMessage::make_error(
        type, code, 0, {offending.data(), offending.total_len()});
    send_icmp(offending.dst(), offending.src(), err);
}

void Host::send_tcp_rst(net::Ipv4Addr local, net::Ipv4Addr remote,
                        const net::TcpSegmentView& seg) {
    net::TcpSegment rst;
    rst.src_port = seg.dst_port;
    rst.dst_port = seg.src_port;
    rst.flags.rst = true;
    if (seg.flags.ack) {
        rst.seq = seg.ack;
    } else {
        // Acknowledge the whole segment: SYN and FIN each occupy a
        // sequence number (RFC 793; Linux's tcp_v4_send_reset).
        rst.flags.ack = true;
        rst.ack = seg.seq + (seg.flags.syn ? 1 : 0) +
                  static_cast<std::uint32_t>(seg.payload.size()) +
                  (seg.flags.fin ? 1 : 0);
    }
    // `local` is the address the segment arrived for: it stays the
    // source, so the checksum can be computed before sending.
    send_datagram({.protocol = net::proto::kTcp, .src = local, .dst = remote},
                  rst.serialize(local, remote));
}

// --- socket factories ----------------------------------------------------

UdpSocket& Host::udp_open(net::Ipv4Addr local_addr, std::uint16_t local_port,
                          Iface* iface) {
    if (local_port == 0) local_port = alloc_ephemeral_port();
    // Newest bind shadows older ones on the same port (demux iterates
    // front to back), letting probes temporarily take over well-known
    // ports such as 53 that long-lived services hold.
    udp_socks_.insert(udp_socks_.begin(),
                      std::unique_ptr<UdpSocket>(new UdpSocket(
                          *this, local_addr, local_port, iface)));
    return **udp_socks_.begin();
}

void Host::udp_close(UdpSocket& sock) {
    // Handlers may close their own socket; destroy it only once the
    // current event has unwound.
    sock.closed_ = true;
    loop_.after(sim::Duration::zero(), [this, target = &sock] {
        std::erase_if(udp_socks_,
                      [&](const auto& s) { return s.get() == target; });
    });
}

TcpSocket& Host::tcp_connect(net::Ipv4Addr local_addr,
                             std::uint16_t local_port, net::Endpoint remote) {
    GK_EXPECTS(!local_addr.is_unspecified());
    if (local_port == 0) local_port = alloc_ephemeral_port();
    const net::Endpoint local{local_addr, local_port};
    GK_EXPECTS(!tcp_conns_.contains({local, remote}));
    auto sock = std::unique_ptr<TcpSocket>(new TcpSocket(
        *this, local, remote, /*active=*/true,
        static_cast<std::uint32_t>(0x10000000u + local_port * 104729u)));
    TcpSocket* raw = sock.get();
    tcp_conns_[{local, remote}] = std::move(sock);
    raw->start_connect();
    return *raw;
}

TcpListener& Host::tcp_listen(std::uint16_t port) {
    GK_EXPECTS(!tcp_listeners_.contains(port));
    tcp_listeners_[port] =
        std::unique_ptr<TcpListener>(new TcpListener(*this, port));
    return *tcp_listeners_[port];
}

void Host::tcp_close_listener(TcpListener& lst) {
    tcp_listeners_.erase(lst.port());
}

void Host::tcp_destroy(TcpSocket& sock) {
    sock.disarm_rto();
    tcp_conns_.erase({sock.local(), sock.remote()});
}

void Host::tcp_reap(net::Endpoint local, net::Endpoint remote) {
    auto it = tcp_conns_.find({local, remote});
    if (it != tcp_conns_.end() &&
        (it->second->state() == TcpSocket::State::Closed ||
         it->second->state() == TcpSocket::State::TimeWait))
        tcp_conns_.erase(it);
}

SctpEndpoint& Host::sctp_open(net::Ipv4Addr local_addr,
                              std::uint16_t local_port) {
    if (local_port == 0) local_port = alloc_ephemeral_port();
    sctp_eps_.push_back(std::unique_ptr<SctpEndpoint>(
        new SctpEndpoint(*this, local_addr, local_port)));
    return *sctp_eps_.back();
}

void Host::sctp_close(SctpEndpoint& ep) {
    std::erase_if(sctp_eps_, [&](const auto& e) { return e.get() == &ep; });
}

DccpEndpoint& Host::dccp_open(net::Ipv4Addr local_addr,
                              std::uint16_t local_port) {
    if (local_port == 0) local_port = alloc_ephemeral_port();
    dccp_eps_.push_back(std::unique_ptr<DccpEndpoint>(
        new DccpEndpoint(*this, local_addr, local_port)));
    return *dccp_eps_.back();
}

void Host::dccp_close(DccpEndpoint& ep) {
    std::erase_if(dccp_eps_, [&](const auto& e) { return e.get() == &ep; });
}

} // namespace gatekit::stack
