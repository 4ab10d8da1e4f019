// Forwarder: the datapath skeleton HomeGateway and CgnGateway share. A
// NAT box is a stack::Host with two ports, inside and WAN, whose NIC
// frame hooks are its whole forwarding path. The skeleton owns the host,
// both NICs and their interfaces, the bring-up (WAN DHCP client, its
// routes, then the inside DHCP server), and the hook logic common to
// every NAT box: the broadcast/local/hairpin classification, the TTL
// check whose Time Exceeded quotes the datagram as it arrived, one
// egress and one drop.
//
// A gateway supplies its policy as the template argument of attach();
// the hooks call its members directly, so no frame pays a virtual call
// or a std::function beyond the NIC hook itself:
//
//   bool stalled() const;               swallow every frame (a fault)
//   Translator& translator();           NatEngine or CgnEngine: the
//                                       configured/hairpin/outbound/
//                                       inbound entry points
//   bool admit(const net::PacketView&); the FORWARD chain, seeing the
//                                       inside view of the flow
//   void forward(sim::Frame, net::Ipv4Addr dst, Port out);
//                                       now or after a queue, emit()
//
// Every hook exit is one of three: forward through emit, decline to the
// host stack (the box's own traffic), or drop. emit has one rule: the
// route toward `dst` must leave by the port the exit names (outbound the
// WAN port, inbound and hairpin the inside port), or the frame is
// dropped. A dropped frame goes back to the pool of the port holding it:
// the arrival port in a hook, the named exit port in emit and in a
// gateway's full queue.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "gateway/nat_engine.hpp"
#include "stack/dhcp_service.hpp"
#include "stack/host.hpp"

namespace gatekit::gateway {

enum class Port : std::uint8_t { kInside, kWan };

class Forwarder {
public:
    struct Config {
        std::string name; ///< host name
        net::MacAddr inside_mac;
        net::MacAddr wan_mac;
        net::Ipv4Addr inside_addr;
        int inside_prefix_len = 24;
        net::Ipv4Addr inside_pool_base;
        /// Decrement the TTL per hop; an expiring one draws Time Exceeded.
        bool decrement_ttl = true;
        /// Inside traffic to the WAN address is a hairpin candidate;
        /// otherwise it is the box's own.
        bool hairpin = true;
        /// WAN datagrams for the inside subnet that are not addressed to
        /// the box are routed untranslated (the plain router fallback).
        bool route_inside = false;
        /// The inside DHCP server names the box as resolver (it proxies
        /// DNS); otherwise the WAN lease's resolver passes through.
        bool proxy_dns = false;
    };

    Forwarder(sim::EventLoop& loop, Config config);

    Forwarder(const Forwarder&) = delete;
    Forwarder& operator=(const Forwarder&) = delete;

    /// Install the frame hooks on both NICs, calling `policy`.
    template <class Policy> void attach(Policy& policy);

    void connect(Port port, sim::Link& link, sim::Link::Side side) {
        nic(port).connect(link, side);
    }

    /// Bring-up: WAN DHCP; on the lease, routes through the WAN
    /// interface (a default route and gateway when the lease names a
    /// router), then the inside DHCP server, then `on_lease`.
    void start(std::function<void(const stack::DhcpLease&)> on_lease);

    stack::Host& host() { return host_; }

    /// Send a forwarded frame toward `dst` with `out`'s source MAC; the
    /// frame is dropped unless `dst`'s route leaves by `out`.
    void emit(sim::Frame frame, net::Ipv4Addr dst, Port out);

    /// Return `frame` to `port`'s pool. True: the frame is consumed.
    bool drop(Port port, sim::Frame& frame) {
        nic(port).pool().release(std::move(frame));
        return true;
    }

private:
    stack::NetIf& nic(Port port) {
        return port == Port::kWan ? wan_nic_ : host_.nic();
    }
    stack::Iface& iface(Port port) {
        return port == Port::kWan ? wan_if_ : inside_if_;
    }
    template <class Policy>
    bool from_inside(Policy& p, net::PacketView& v, sim::Frame& frame);
    template <class Policy>
    bool from_wan(Policy& p, net::PacketView& v, sim::Frame& frame);
    /// Hand the translated frame, trimmed to its datagram, to the
    /// policy's forward.
    template <class Policy>
    bool pass(Policy& p, net::PacketView& v, sim::Frame& frame, Port out) {
        frame.resize(14u + v.total_len()); // shed any trailing link padding
        p.forward(std::move(frame), v.dst(), out);
        return true;
    }
    /// Time Exceeded for the datagram as it arrived, then drop it.
    bool expire(Port rx, const net::PacketView& v, sim::Frame& frame) {
        ttl_expired({v.data(), v.total_len()});
        return drop(rx, frame);
    }
    /// Emit ICMP Time Exceeded toward `datagram`'s source (RFC 792),
    /// quoting it as it arrived: this hop would have decremented the TTL
    /// to zero. Cascaded (NAT444) chains thus report every expiring hop
    /// instead of silently eating traceroute probes.
    void ttl_expired(std::span<const std::uint8_t> datagram);

    Config cfg_;
    stack::Host host_;
    stack::NetIf& wan_nic_;
    stack::Iface& inside_if_;
    stack::Iface& wan_if_;
    std::unique_ptr<stack::DhcpClient> wan_dhcp_;
    std::unique_ptr<stack::DhcpServer> inside_dhcp_;
    std::function<void(const stack::DhcpLease&)> on_lease_;
};

template <class Policy> void Forwarder::attach(Policy& policy) {
    host_.nic().set_fast_ip_hook(
        [this, &policy](net::PacketView& v, sim::Frame& f) {
            return from_inside(policy, v, f);
        });
    wan_nic_.set_fast_ip_hook(
        [this, &policy](net::PacketView& v, sim::Frame& f) {
            return from_wan(policy, v, f);
        });
}

template <class Policy>
bool Forwarder::from_inside(Policy& p, net::PacketView& v,
                            sim::Frame& frame) {
    // A stalled box is dead to the wire: swallow everything, its own
    // traffic included, until it recovers.
    if (p.stalled()) return drop(Port::kInside, frame);
    auto& nat = p.translator();
    if (!nat.configured()) return false;
    const net::Ipv4Addr dst = v.dst();
    const bool hairpin = cfg_.hairpin && dst == wan_if_.addr();
    if (dst.is_broadcast() || (!hairpin && host_.is_local_addr(dst)))
        return false; // the box's own
    // Linux order: the forwarding path's TTL check precedes the FORWARD
    // chain and the NAT, so the Time Exceeded quotes the datagram as it
    // arrived (the NAT's own ttl<=1 drop is a backstop for direct
    // engine users).
    if (cfg_.decrement_ttl && v.ttl() <= 1)
        return expire(Port::kInside, v, frame);
    if (hairpin) {
        // Hairpin bypasses the FORWARD chain; what it refuses (pinging
        // the WAN address, say) reaches the box's own stack.
        if (!nat.hairpin(v)) return false;
        return pass(p, v, frame, Port::kInside);
    }
    if (!p.admit(v) || nat.outbound(v) != NatEngine::Verdict::kForwarded)
        return drop(Port::kInside, frame);
    return pass(p, v, frame, Port::kWan);
}

template <class Policy>
bool Forwarder::from_wan(Policy& p, net::PacketView& v, sim::Frame& frame) {
    if (p.stalled()) return drop(Port::kWan, frame);
    const net::Ipv4Addr dst = v.dst();
    if (dst.is_broadcast()) return false; // the box's own
    if (!host_.is_local_addr(dst)) {
        // Not addressed to the box: only the plain router fallback
        // forwards it, into the inside subnet. Anything else the host
        // stack drops, as hosts do not forward.
        if (!cfg_.route_inside ||
            !dst.same_subnet(cfg_.inside_addr, cfg_.inside_prefix_len))
            return false;
        if (cfg_.decrement_ttl) {
            if (v.ttl() <= 1) return expire(Port::kWan, v, frame);
            v.decrement_ttl();
        }
        return pass(p, v, frame, Port::kInside);
    }
    auto& nat = p.translator();
    if (!nat.configured()) return false;
    // Only a packet the NAT claims is a forwarding event, so an expiring
    // TTL is known only after translation: keep the datagram as it
    // arrived for the Time Exceeded quote.
    net::Bytes arrived;
    if (cfg_.decrement_ttl && v.ttl() <= 1)
        arrived.assign(v.data(), v.data() + v.total_len());
    const auto verdict = nat.inbound(v);
    if (verdict == NatEngine::Verdict::kNotOurs)
        return false; // the box's own, delivered by the host stack
    if (verdict == NatEngine::Verdict::kForwarded && !arrived.empty()) {
        ttl_expired(arrived);
        return drop(Port::kWan, frame);
    }
    // The FORWARD chain sees the inside (post-DNAT) view of the flow.
    if (verdict == NatEngine::Verdict::kDropped || !p.admit(v))
        return drop(Port::kWan, frame);
    return pass(p, v, frame, Port::kInside);
}

} // namespace gatekit::gateway
