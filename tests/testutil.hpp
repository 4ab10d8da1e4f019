// Shared test topologies for stack-level tests.
#pragma once

#include <functional>
#include <optional>

#include "gateway/nat_engine.hpp"
#include "l2/vlan_switch.hpp"
#include "sim/link.hpp"
#include "stack/host.hpp"
#include "stack/udp_socket.hpp"

namespace gatekit::testutil {

using namespace gatekit;

/// Two hosts on one point-to-point 100 Mb/s link:
///   a (10.0.0.1/24) <-> b (10.0.0.2/24)
struct Net2 {
    sim::EventLoop loop;
    sim::Link link{loop, 100'000'000, std::chrono::microseconds(1)};
    stack::Host a{loop, "a", net::MacAddr::from_index(1)};
    stack::Host b{loop, "b", net::MacAddr::from_index(2)};
    stack::Iface& ia;
    stack::Iface& ib;

    Net2() : ia(a.add_iface()), ib(b.add_iface()) {
        a.nic().connect(link, sim::Link::Side::A);
        b.nic().connect(link, sim::Link::Side::B);
        ia.configure(net::Ipv4Addr(10, 0, 0, 1), 24);
        ib.configure(net::Ipv4Addr(10, 0, 0, 2), 24);
        a.add_route(net::Ipv4Addr(10, 0, 0, 0), 24, ia);
        b.add_route(net::Ipv4Addr(10, 0, 0, 0), 24, ib);
    }
};

/// Serialize `pkt` and translate the copy in place with a NatEngine or
/// CgnEngine: the datagram to emit, or nullopt unless it was forwarded.
template <class Engine>
std::optional<net::Bytes> outbound_copy(Engine& engine,
                                        const net::Ipv4Packet& pkt) {
    net::Bytes bytes = pkt.serialize();
    auto v = net::PacketView::of(bytes);
    if (engine.outbound(v) != gateway::NatEngine::Verdict::kForwarded)
        return std::nullopt;
    return bytes;
}

/// outbound_copy's WAN-side counterpart. `handled` is false exactly when
/// the engine says kNotOurs. The copy is cut to the translated total
/// length: an ICMP error may have become a shorter RST.
template <class Engine>
std::optional<net::Bytes> inbound_copy(Engine& engine,
                                       const net::Ipv4Packet& pkt,
                                       bool& handled) {
    net::Bytes bytes = pkt.serialize();
    auto v = net::PacketView::of(bytes);
    const auto verdict = engine.inbound(v);
    using Verdict = gateway::NatEngine::Verdict;
    handled = verdict != Verdict::kNotOurs;
    if (verdict != Verdict::kForwarded) return std::nullopt;
    bytes.resize(v.total_len());
    return bytes;
}

/// A frame filter placed bump-in-the-wire between two links, used to
/// inject loss:   a --linkA-- [filter] --linkB-- b
class DropFilter {
public:
    /// Predicate: return true to DROP the frame (args: direction a->b?,
    /// frame index in that direction, frame bytes).
    using Predicate =
        std::function<bool(bool a_to_b, std::uint64_t index, const sim::Frame&)>;

    DropFilter(sim::Link& link_a, sim::Link& link_b)
        : toward_b_(link_b, sim::Link::Side::A, true, pred_, n_ab_),
          toward_a_(link_a, sim::Link::Side::B, false, pred_, n_ba_) {
        link_a.attach(sim::Link::Side::B, toward_b_);
        link_b.attach(sim::Link::Side::A, toward_a_);
    }

    void set_predicate(Predicate p) { pred_ = std::move(p); }
    std::uint64_t dropped() const { return toward_b_.dropped + toward_a_.dropped; }

private:
    struct Half : sim::FrameSink {
        Half(sim::Link& out_link, sim::Link::Side out_side, bool a_to_b,
             Predicate& pred, std::uint64_t& counter)
            : out(out_link, out_side), a_to_b(a_to_b), pred(pred),
              counter(counter) {}
        void frame_in(sim::Frame frame) override {
            const std::uint64_t idx = counter++;
            if (pred && pred(a_to_b, idx, frame)) {
                ++dropped;
                return;
            }
            out.send(std::move(frame));
        }
        sim::LinkEnd out;
        bool a_to_b;
        Predicate& pred;
        std::uint64_t& counter;
        std::uint64_t dropped = 0;
    };

    Predicate pred_;
    std::uint64_t n_ab_ = 0;
    std::uint64_t n_ba_ = 0;
    Half toward_b_;
    Half toward_a_;
};

/// Two hosts joined through a DropFilter, for loss-recovery tests.
struct LossyNet2 {
    sim::EventLoop loop;
    sim::Link link_a{loop, 100'000'000, std::chrono::microseconds(1)};
    sim::Link link_b{loop, 100'000'000, std::chrono::microseconds(1)};
    DropFilter filter{link_a, link_b};
    stack::Host a{loop, "a", net::MacAddr::from_index(1)};
    stack::Host b{loop, "b", net::MacAddr::from_index(2)};
    stack::Iface& ia;
    stack::Iface& ib;

    LossyNet2() : ia(a.add_iface()), ib(b.add_iface()) {
        a.nic().connect(link_a, sim::Link::Side::A);
        b.nic().connect(link_b, sim::Link::Side::B);
        ia.configure(net::Ipv4Addr(10, 0, 0, 1), 24);
        ib.configure(net::Ipv4Addr(10, 0, 0, 2), 24);
        a.add_route(net::Ipv4Addr(10, 0, 0, 0), 24, ia);
        b.add_route(net::Ipv4Addr(10, 0, 0, 0), 24, ib);
    }
};

} // namespace gatekit::testutil
