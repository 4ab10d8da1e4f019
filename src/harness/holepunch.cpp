#include "harness/holepunch.hpp"

#include "harness/testbed.hpp"
#include "stack/udp_socket.hpp"
#include "stun/turn.hpp"

namespace gatekit::harness {

namespace {

/// The rendezvous + simultaneous-punch exchange, topology-agnostic: the
/// testbed is already up, and slots ia/ib may sit behind any NAT chain.
HolePunchResult drive_punch(Testbed& tb, sim::EventLoop& loop, int ia,
                            int ib) {
    HolePunchResult result;

    auto& rendezvous = tb.server().udp_open(net::Ipv4Addr::any(), 9987);
    rendezvous.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t> payload,
            const net::PacketView&) {
            if (payload.empty()) return;
            if (payload[0] == 'A') result.reflexive_a = src;
            if (payload[0] == 'B') result.reflexive_b = src;
        });

    // Interface-bound peers: each one's traffic goes through its own NAT.
    auto& sock_a = tb.client().udp_open(tb.slot(ia).client_addr, 46000,
                                        tb.slot(ia).client_if);
    auto& sock_b = tb.client().udp_open(tb.slot(ib).client_addr, 46000,
                                        tb.slot(ib).client_if);
    bool heard_a = false, heard_b = false;
    sock_a.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t> p,
            const net::PacketView&) {
            if (!p.empty() && p[0] == 'P') heard_a = true;
        });
    sock_b.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t> p,
            const net::PacketView&) {
            if (!p.empty() && p[0] == 'P') heard_b = true;
        });

    sock_a.send_to({tb.slot(ia).server_addr, 9987}, {{'A'}});
    sock_b.send_to({tb.slot(ib).server_addr, 9987}, {{'B'}});
    loop.run_for(std::chrono::milliseconds(100));
    result.registered =
        result.reflexive_a.port != 0 && result.reflexive_b.port != 0;
    if (!result.registered) return result;

    for (int round = 0; round < 3; ++round) {
        sock_a.send_to(result.reflexive_b, {{'P'}});
        sock_b.send_to(result.reflexive_a, {{'P'}});
        loop.run_for(std::chrono::milliseconds(200));
    }
    result.success = heard_a && heard_b;
    return result;
}

} // namespace

HolePunchResult run_hole_punch(const gateway::DeviceProfile& a,
                               const gateway::DeviceProfile& b) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int ia = tb.add_device(a);
    const int ib = tb.add_device(b);
    tb.start_and_wait();
    return drive_punch(tb, loop, ia, ib);
}

HolePunchResult run_hole_punch_nat444(const gateway::DeviceProfile& a,
                                      const gateway::DeviceProfile& b,
                                      const gateway::CgnConfig& cgn,
                                      bool same_cgn) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int ga = tb.add_cgn_group(cgn);
    const int gb = same_cgn ? ga : tb.add_cgn_group(cgn);
    const int ia = tb.add_device_behind_cgn(a, ga);
    const int ib = tb.add_device_behind_cgn(b, gb);
    tb.start_and_wait();
    return drive_punch(tb, loop, ia, ib);
}

const char* to_string(P2pPath p) {
    switch (p) {
    case P2pPath::Punched:
        return "punched";
    case P2pPath::Relayed:
        return "relayed";
    case P2pPath::Failed:
        return "failed";
    }
    return "?";
}

P2pResult establish_p2p(const gateway::DeviceProfile& a,
                        const gateway::DeviceProfile& b) {
    P2pResult out;

    // Rung 1: direct hole punching.
    const auto punch = run_hole_punch(a, b);
    if (punch.success) {
        out.path = P2pPath::Punched;
        out.bidirectional = true;
        return out;
    }

    // Rung 2: TURN relay. Peer A allocates; peer B only ever sends plain
    // UDP toward the relay address, which every outbound-UDP-capable NAT
    // permits.
    sim::EventLoop loop;
    Testbed tb(loop);
    const int ia = tb.add_device(a);
    const int ib = tb.add_device(b);
    tb.start_and_wait();

    stun::TurnServer turn(tb.server(), tb.slot(ia).server_addr);

    stun::TurnClient alice(tb.client(), tb.slot(ia).client_addr,
                           {tb.slot(ia).server_addr, stun::kTurnPort},
                           tb.slot(ia).client_if);
    bool allocated = false;
    net::Endpoint relay;
    alice.allocate([&](bool ok, net::Endpoint r) {
        allocated = ok;
        relay = r;
    });
    loop.run_for(std::chrono::seconds(3));
    if (!allocated) return out;

    auto& bob = tb.client().udp_open(tb.slot(ib).client_addr, 46100,
                                     tb.slot(ib).client_if);
    bool alice_heard = false, bob_heard = false;
    net::Endpoint bob_as_seen;
    alice.set_data_handler(
        [&](net::Endpoint peer, std::span<const std::uint8_t> payload) {
            if (!payload.empty() && payload[0] == 'B') {
                alice_heard = true;
                bob_as_seen = peer;
            }
        });
    bob.set_receive_handler([&](net::Endpoint src,
                                std::span<const std::uint8_t> payload,
                                const net::PacketView&) {
        if (src == relay && !payload.empty() && payload[0] == 'A')
            bob_heard = true;
    });

    // Bob contacts the relay (creating his NAT binding toward it); Alice
    // answers through the relay to the endpoint the relay observed.
    bob.send_to(relay, {{'B'}});
    loop.run_for(std::chrono::milliseconds(200));
    if (alice_heard) alice.send(bob_as_seen, {'A'});
    loop.run_for(std::chrono::milliseconds(200));

    if (alice_heard && bob_heard) {
        out.path = P2pPath::Relayed;
        out.bidirectional = true;
    }
    return out;
}

} // namespace gatekit::harness
