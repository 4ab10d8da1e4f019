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

    // The NIC frame hooks are the whole datapath; the host stack only
    // sees what is the gateway's own.
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
    // A stalled device is dead to the wire: swallow everything, the
    // gateway's own traffic included, until it recovers.
    if (stalled()) {
        host_.nic().pool().release(std::move(frame));
        return true;
    }
    if (!nat_.configured()) return false;
    const net::Ipv4Addr dst = v.dst();
    // LAN traffic to the WAN address is a hairpin candidate on devices
    // that hairpin; elsewhere it is the gateway's own.
    const bool hairpin = config_.profile.hairpin && dst == nat_.wan_addr();
    if (dst.is_broadcast() || (!hairpin && host_.is_local_addr(dst)))
        return false; // gateway-local
    // Linux order: the forwarding path's TTL check precedes the FORWARD
    // chain and the NAT, and its Time Exceeded quotes the datagram as it
    // arrived (the NAT's own ttl<=1 drop is a backstop for direct
    // engine users).
    if (config_.profile.decrement_ttl && v.ttl() <= 1) {
        ttl_expired({v.data(), v.total_len()});
        host_.nic().pool().release(std::move(frame));
        return true;
    }
    if (hairpin) {
        // Hairpin bypasses the FORWARD chain; what it refuses (pinging
        // the WAN address, say) reaches the gateway's own stack.
        if (!nat_.hairpin(v)) return false;
        frame.resize(14u + v.total_len());
        fwd_.submit(Direction::Down, v.total_len(),
                    [this, f = std::move(frame), to = v.dst()]() mutable {
                        emit_frame(std::move(f), to, lan_if_);
                    });
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
                    emit_frame(std::move(f), dst, wan_if_);
                });
    return true;
}

bool HomeGateway::frame_from_wan(net::PacketView& v, sim::Frame& frame) {
    if (stalled()) {
        wan_nic_.pool().release(std::move(frame));
        return true;
    }
    const net::Ipv4Addr wire_dst = v.dst();
    if (wire_dst.is_broadcast()) return false; // gateway-local
    if (!host_.is_local_addr(wire_dst)) {
        // Not addressed to the gateway: only the plain router fallback
        // forwards it, into the LAN subnet. Anything else the host stack
        // drops, as hosts do not forward.
        if (config_.profile.unknown_proto !=
                UnknownProtocolPolicy::Untranslated ||
            !wire_dst.same_subnet(config_.lan_addr, config_.lan_prefix_len))
            return false;
        if (config_.profile.decrement_ttl) {
            if (v.ttl() <= 1) {
                ttl_expired({v.data(), v.total_len()});
                wan_nic_.pool().release(std::move(frame));
                return true;
            }
            v.decrement_ttl();
        }
    } else {
        if (!nat_.configured()) return false;
        // Only a packet the NAT claims is a forwarding event, so an
        // expiring TTL is known only after translation: keep the
        // datagram as it arrived for the Time Exceeded quote.
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
        // The FORWARD chain sees the internal (post-DNAT) view of the
        // flow.
        if (verdict == NatEngine::Verdict::kDropped ||
            (filter_active(filter_) && !filter_pass(RuleChain::key_of(v)))) {
            wan_nic_.pool().release(std::move(frame));
            return true;
        }
    }
    frame.resize(14u + v.total_len());
    fwd_.submit(Direction::Down, v.total_len(),
                [this, f = std::move(frame), to = v.dst()]() mutable {
                    emit_frame(std::move(f), to, lan_if_);
                });
    return true;
}

void HomeGateway::emit_frame(sim::Frame frame, net::Ipv4Addr dst,
                             stack::Iface& out) {
    // Route-table-driven: anything whose best route does not leave by
    // `out` is dropped here, which keeps each direction on its own port
    // while allowing routed LAN-side subnets.
    const stack::Route* route = host_.lookup_route(dst);
    if (route == nullptr || route->iface != &out) {
        (&out == &wan_if_ ? wan_nic_ : host_.nic())
            .pool()
            .release(std::move(frame));
        return;
    }
    const auto src = out.mac().octets();
    std::copy(src.begin(), src.end(), frame.begin() + 6);
    out.send_frame(std::move(frame), route->via ? *route->via : dst);
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

} // namespace gatekit::gateway
