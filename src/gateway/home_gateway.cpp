#include "gateway/home_gateway.hpp"

#include <algorithm>

#include "net/icmp.hpp"
#include "util/assert.hpp"

namespace gatekit::gateway {

HomeGateway::HomeGateway(sim::EventLoop& loop, Config config)
    : loop_(loop), config_(std::move(config)),
      host_(loop, "gw-" + config_.profile.tag,
            net::MacAddr::from_index(config_.mac_index)),
      wan_nic_(host_.add_nic(
          config_.profile.same_mac_both_sides
              ? net::MacAddr::from_index(config_.mac_index)
              : net::MacAddr::from_index(config_.mac_index + 1))),
      lan_if_(host_.add_iface()), wan_if_(host_.add_iface_on(wan_nic_)),
      nat_(loop, config_.profile), fwd_(loop, config_.profile.fwd),
      dns_proxy_(host_, config_.profile) {
    lan_if_.configure(config_.lan_addr, config_.lan_prefix_len);
    host_.add_route(config_.lan_addr, config_.lan_prefix_len, lan_if_);

    for (const Rule& r : config_.profile.firewall_rules)
        filter_.add_rule(r);
    filter_compiled_ = config_.profile.firewall_compiled;

    // The NIC frame hooks translate; the host stack's hooks keep what
    // is not translation. A LAN packet reaching the forward hook never
    // passed the LAN frame hook (a broadcast-MAC frame, say): it takes
    // the frame code on one copy.
    host_.set_forward_hook([this](stack::Iface& in,
                                  const net::Ipv4Packet& pkt,
                                  std::span<const std::uint8_t> raw) {
        if (stalled()) return; // faulted device forwards nothing
        if (&in == &lan_if_) {
            if (nat_.configured()) from_lan_copy(raw);
        }
        // WAN-side packets for non-local destinations: only the plain
        // router fallback forwards into the LAN subnet.
        else if (config_.profile.unknown_proto ==
                     UnknownProtocolPolicy::Untranslated &&
                 pkt.h.dst.same_subnet(config_.lan_addr,
                                       config_.lan_prefix_len)) {
            net::Ipv4Packet out = pkt;
            if (config_.profile.decrement_ttl) {
                if (pkt.h.ttl <= 1) {
                    ttl_expired(raw.first(pkt.h.header_len() +
                                          pkt.payload.size()));
                    return;
                }
                out.h.ttl = static_cast<std::uint8_t>(pkt.h.ttl - 1);
            }
            auto bytes = out.serialize();
            const auto dst = out.h.dst;
            const std::size_t len = bytes.size();
            fwd_.submit(Direction::Down, len,
                        [this, bytes = std::move(bytes), dst]() mutable {
                            emit_lan(std::move(bytes), dst);
                        });
        }
    });
    host_.set_local_intercept([this](stack::Iface& in,
                                     const net::Ipv4Packet& pkt,
                                     std::span<const std::uint8_t>) {
        // During a fault stall the device is dead to the wire: swallow
        // everything (NAT'd and gateway-local alike) until it recovers.
        if (stalled()) return true;
        // WAN-side packets here are the gateway's own: the WAN frame
        // hook already offered them to the NAT. LAN-side packets
        // addressed to the WAN address: hairpin candidates on devices
        // that support it; otherwise they reach the gateway's own stack
        // (e.g. pinging the WAN address).
        if (nat_.configured() && &in == &lan_if_ &&
            pkt.h.dst == nat_.wan_addr()) {
            auto out = nat_.hairpin(pkt);
            if (!out) return false;
            const auto dst = net::ipv4_dst(*out);
            const std::size_t len = out->size();
            fwd_.submit(Direction::Down, len,
                        [this, bytes = std::move(*out), dst]() mutable {
                            emit_lan(std::move(bytes), dst);
                        });
            return true;
        }
        return false;
    });
    host_.nic().set_fast_ip_hook(
        [this](net::PacketView& v, sim::Frame& f) {
            return frame_from_lan(v, f);
        });
    wan_nic_.set_fast_ip_hook(
        [this](net::PacketView& v, sim::Frame& f) {
            return frame_from_wan(v, f);
        });
}

bool HomeGateway::filter_pass(const RuleChain::Key& key) {
    const RuleVerdict v = filter_compiled_ ? filter_.evaluate_compiled(key)
                                           : filter_.evaluate(key);
    return v == RuleVerdict::kAccept;
}

/// An unconfigured empty-accept chain must cost nothing and count
/// nothing — the unfiltered figure benches run through here per packet.
static bool filter_active(const RuleChain& f) {
    return !f.empty() || f.default_verdict() != RuleVerdict::kAccept;
}

bool HomeGateway::frame_from_lan(net::PacketView& v, sim::Frame& frame) {
    // Like the packet-path hooks, swallow everything during a stall.
    if (stalled()) {
        host_.nic().pool().release(std::move(frame));
        return true;
    }
    if (!nat_.configured()) return false;
    const net::Ipv4Addr dst = v.dst();
    if (dst.is_broadcast() || host_.is_local_addr(dst))
        return false; // gateway-local / hairpin
    // Linux order: the forwarding path's TTL check precedes the FORWARD
    // chain and the NAT, and its Time Exceeded quotes the datagram as it
    // arrived (the NAT's own ttl<=1 drop is a backstop for direct
    // engine users).
    if (config_.profile.decrement_ttl && v.ttl() <= 1) {
        ttl_expired({v.data(), v.total_len()});
        host_.nic().pool().release(std::move(frame));
        return true;
    }
    if ((filter_active(filter_) && !filter_pass(RuleChain::key_of(v))) ||
        nat_.outbound(v) == NatEngine::Verdict::kDropped) {
        host_.nic().pool().release(std::move(frame));
        return true;
    }
    frame.resize(14u + v.total_len()); // shed any trailing link padding
    fwd_.submit(Direction::Up, v.total_len(),
                [this, f = std::move(frame), dst]() mutable {
                    emit_wan_frame(std::move(f), dst);
                });
    return true;
}

bool HomeGateway::frame_from_wan(net::PacketView& v, sim::Frame& frame) {
    if (stalled()) {
        wan_nic_.pool().release(std::move(frame));
        return true;
    }
    if (!nat_.configured()) return false;
    const net::Ipv4Addr wire_dst = v.dst();
    if (wire_dst.is_broadcast() || !host_.is_local_addr(wire_dst))
        return false; // plain-router fallback (or not ours)
    // Only a packet the NAT claims is a forwarding event, so an expiring
    // TTL is known only after translation: keep the datagram as it
    // arrived for the Time Exceeded quote.
    net::Bytes arrived;
    if (config_.profile.decrement_ttl && v.ttl() <= 1)
        arrived.assign(v.data(), v.data() + v.total_len());
    const auto verdict = nat_.inbound(v);
    if (verdict == NatEngine::Verdict::kNotOurs)
        return false; // gateway-local delivery via the host stack
    if (verdict == NatEngine::Verdict::kForwarded && !arrived.empty()) {
        ttl_expired(arrived);
        wan_nic_.pool().release(std::move(frame));
        return true;
    }
    // The FORWARD chain sees the internal (post-DNAT) view of the flow.
    if (verdict == NatEngine::Verdict::kDropped ||
        (filter_active(filter_) && !filter_pass(RuleChain::key_of(v)))) {
        wan_nic_.pool().release(std::move(frame));
        return true;
    }
    frame.resize(14u + v.total_len());
    const net::Ipv4Addr dst = v.dst(); // internal destination post-rewrite
    fwd_.submit(Direction::Down, v.total_len(),
                [this, f = std::move(frame), dst]() mutable {
                    emit_lan_frame(std::move(f), dst);
                });
    return true;
}

void HomeGateway::from_lan_copy(std::span<const std::uint8_t> datagram) {
    sim::Frame frame = host_.nic().pool().acquire();
    frame.assign(14, 0); // MACs are written at egress
    frame[12] = 0x08;    // ethertype IPv4
    frame.insert(frame.end(), datagram.begin(), datagram.end());
    // The host stack parsed the same bytes, so the view parses too.
    auto v = net::PacketView::of({frame.data() + 14, datagram.size()});
    if (!frame_from_lan(v, frame)) host_.nic().pool().release(std::move(frame));
}

void HomeGateway::emit_wan_frame(sim::Frame frame, net::Ipv4Addr dst) {
    const stack::Route* route = host_.lookup_route(dst);
    if (route == nullptr || route->iface != &wan_if_) {
        wan_nic_.pool().release(std::move(frame));
        return;
    }
    const auto next_hop = route->via ? *route->via : dst;
    if (const auto mac = wan_if_.arp_cache().lookup(next_hop)) {
        std::copy(mac->octets().begin(), mac->octets().end(), frame.begin());
        // mac() returns by value; copy the octets out rather than
        // binding a reference into the dead temporary.
        const auto src = wan_nic_.mac().octets();
        std::copy(src.begin(), src.end(), frame.begin() + 6);
        wan_nic_.send_raw_frame(std::move(frame));
        return;
    }
    // ARP miss: the queue-and-resolve machinery owns datagram bytes, not
    // frames; copy the datagram out and recycle the frame shell.
    net::Bytes dgram(frame.begin() + 14, frame.end());
    wan_nic_.pool().release(std::move(frame));
    wan_if_.send_ip_raw(std::move(dgram), next_hop);
}

void HomeGateway::emit_lan_frame(sim::Frame frame, net::Ipv4Addr dst) {
    const stack::Route* route = host_.lookup_route(dst);
    if (route == nullptr || route->iface != &lan_if_) {
        host_.nic().pool().release(std::move(frame));
        return;
    }
    const auto next_hop = route->via ? *route->via : dst;
    if (const auto mac = lan_if_.arp_cache().lookup(next_hop)) {
        std::copy(mac->octets().begin(), mac->octets().end(), frame.begin());
        const auto src = host_.nic().mac().octets();
        std::copy(src.begin(), src.end(), frame.begin() + 6);
        host_.nic().send_raw_frame(std::move(frame));
        return;
    }
    net::Bytes dgram(frame.begin() + 14, frame.end());
    host_.nic().pool().release(std::move(frame));
    lan_if_.send_ip_raw(std::move(dgram), next_hop);
}

void HomeGateway::connect_lan(sim::Link& link, sim::Link::Side side) {
    host_.nic().connect(link, side);
}

void HomeGateway::connect_wan(sim::Link& link, sim::Link::Side side) {
    wan_nic_.connect(link, side);
}

void HomeGateway::start(std::function<void(net::Ipv4Addr)> on_ready) {
    on_ready_ = std::move(on_ready);
    wan_dhcp_ = std::make_unique<stack::DhcpClient>(host_, wan_if_);
    wan_dhcp_->start([this](const stack::DhcpLease& lease) {
        host_.add_route(lease.addr, lease.prefix_len, wan_if_);
        if (!lease.router.is_unspecified()) {
            host_.add_route(net::Ipv4Addr::any(), 0, wan_if_, lease.router);
            // Off-link egress (e.g. toward subnets behind an upstream
            // CGN) resolves the lease's router instead of ARPing for
            // the final destination.
            wan_if_.set_gateway(lease.router);
        }
        nat_.set_wan_addr(lease.addr);

        // LAN-side services come up once the uplink works.
        stack::DhcpServerConfig lan_cfg;
        lan_cfg.pool_base = config_.lan_pool_base;
        lan_cfg.prefix_len = config_.lan_prefix_len;
        lan_cfg.router = config_.lan_addr;
        lan_cfg.dns_server = config_.lan_addr; // we proxy DNS
        lan_dhcp_ = std::make_unique<stack::DhcpServer>(host_, lan_if_,
                                                        lan_cfg);
        dns_proxy_.start({lease.dns_server, net::kDnsPort}, lease.addr);
        if (on_ready_) on_ready_(lease.addr);
    });
}

void HomeGateway::bind_observability(obs::MetricsRegistry* reg,
                                     obs::Tracer* tracer,
                                     const std::string& device) {
    tracer_ = tracer;
    obs_device_ = device;
    if (reg != nullptr) {
        nat_.bind_observability(*reg, device);
        fwd_.bind_observability(*reg, device);
        dns_proxy_.bind_observability(*reg, device);
        if (!filter_.empty()) filter_.attach_metrics(*reg, device);
        m_faults_ = reg->counter("gateway.faults", {{"device", device}});
    }
    host_.bind_observability(reg, tracer);
}

void HomeGateway::inject_fault(const GatewayFault& fault) {
    ++faults_injected_;
    obs::inc(m_faults_);
    if (obs::trace_on(tracer_)) {
        auto ev = tracer_->event(obs_device_, "gateway", "fault");
        ev.with("flush_nat", static_cast<std::int64_t>(fault.flush_nat));
        ev.with("stall_ns", static_cast<std::int64_t>(fault.stall.count()));
        tracer_->emit(ev);
    }
    if (fault.flush_nat) nat_.flush();
    if (fault.stall > sim::Duration::zero())
        stalled_until_ = std::max(stalled_until_, loop_.now() + fault.stall);
    // Dump the flight recorder after applying the fault so the window
    // shows what led up to it.
    if (obs::trace_on(tracer_)) tracer_->trigger(obs_device_, "gateway.fault");
}

void HomeGateway::ttl_expired(std::span<const std::uint8_t> datagram) {
    const net::Ipv4Addr src = net::ipv4_src(datagram);
    if (src.is_unspecified() || src.is_broadcast()) return;
    const auto err = net::IcmpMessage::make_error(
        net::IcmpType::TimeExceeded, net::icmp_code::kTtlExceeded, 0,
        datagram);
    // Routed back toward the source; the egress interface's address
    // becomes the ICMP source (LAN address upstream, WAN downstream).
    host_.send_icmp(net::Ipv4Addr::any(), src, err);
}

void HomeGateway::emit_lan(net::Bytes datagram, net::Ipv4Addr dst) {
    // Route-table-driven (mirrors emit_wan): anything whose best route
    // does not leave via the LAN port is dropped here, which preserves
    // the old on-link-only gate while allowing routed LAN-side subnets.
    const stack::Route* route = host_.lookup_route(dst);
    if (route == nullptr || route->iface != &lan_if_) return;
    host_.send_raw(lan_if_, std::move(datagram),
                   route->via ? *route->via : dst);
}

} // namespace gatekit::gateway
