// UDP hole punching between two peers behind two different home gateways
// (Ford, Srisuresh, Kegel — the paper's reference [10]). A rendezvous
// server on the WAN side learns each peer's reflexive endpoint; the peers
// then fire datagrams at each other's mapping simultaneously. Whether the
// punch works depends on exactly the behaviors this library measures:
// port preservation, mapping class, and binding lifetimes.
//
//   ./hole_punch [tagA] [tagB]     (default: owrt x be1)
#include <iostream>

#include "devices/profiles.hpp"
#include "harness/testbed.hpp"
#include "stack/udp_socket.hpp"

using namespace gatekit;
using harness::Testbed;

namespace {

struct Peer {
    const char* name;
    int slot;
    stack::UdpSocket* sock = nullptr;
    net::Endpoint reflexive{}; ///< learned by the rendezvous server
    bool heard_from_peer = false;
};

} // namespace

int main(int argc, char** argv) {
    const std::string tag_a = argc > 1 ? argv[1] : "owrt";
    const std::string tag_b = argc > 2 ? argv[2] : "be1";
    auto pa = devices::find_profile(tag_a);
    auto pb = devices::find_profile(tag_b);
    if (!pa || !pb) {
        std::cerr << "unknown device tag\n";
        return 1;
    }

    // Two gateways on one testbed: the test client's two vlan-ifs play
    // the two independent peers; the test server is the rendezvous point.
    sim::EventLoop loop;
    Testbed tb(loop);
    Peer a{tag_a.c_str(), tb.add_device(*pa)};
    Peer b{tag_b.c_str(), tb.add_device(*pb)};
    tb.start_and_wait();

    // Rendezvous: reflect each registration's observed source endpoint.
    auto& rendezvous = tb.server().udp_open(net::Ipv4Addr::any(), 9987);
    rendezvous.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t> payload,
            const net::PacketView&) {
            if (payload.empty()) return;
            Peer& p = payload[0] == 'A' ? a : b;
            p.reflexive = src;
        });

    for (Peer* p : {&a, &b}) {
        auto& slot = tb.slot(p->slot);
        // Interface-bound: each peer's traffic traverses its own gateway,
        // as two independent homes would.
        p->sock = &tb.client().udp_open(slot.client_addr, 46000,
                                        slot.client_if);
        p->sock->set_receive_handler(
            [p](net::Endpoint src, std::span<const std::uint8_t> payload,
                const net::PacketView&) {
                if (!payload.empty() && payload[0] == 'P') {
                    p->heard_from_peer = true;
                    std::cout << p->name << " <- punch from "
                              << to_string(src) << "\n";
                }
            });
    }

    // Phase 1: both peers register with the rendezvous server. Each peer
    // talks to ITS OWN gateway's server address (the testbed gives every
    // device its own WAN subnet; a real deployment has one global server).
    a.sock->send_to({tb.slot(a.slot).server_addr, 9987}, {{'A'}});
    b.sock->send_to({tb.slot(b.slot).server_addr, 9987}, {{'B'}});
    loop.run_for(std::chrono::milliseconds(100));

    if (a.reflexive.port == 0 || b.reflexive.port == 0) {
        std::cerr << "registration failed\n";
        return 1;
    }
    std::cout << tag_a << " reflexive endpoint: " << to_string(a.reflexive)
              << "\n"
              << tag_b << " reflexive endpoint: " << to_string(b.reflexive)
              << "\n\n";

    // Phase 2: simultaneous punches at each other's reflexive endpoint.
    // The first packet in each direction opens the sender's own binding
    // toward the peer; once both exist, traffic flows.
    // (Routing note: each WAN subnet is reachable from the client via its
    // own gateway, so A's punch toward B's reflexive address traverses
    // gateway A, which is exactly the hole-punching topology.)
    for (int round = 0; round < 3; ++round) {
        a.sock->send_to(b.reflexive, {{'P'}});
        b.sock->send_to(a.reflexive, {{'P'}});
        loop.run_for(std::chrono::milliseconds(200));
    }

    const bool success = a.heard_from_peer && b.heard_from_peer;
    std::cout << "\nHole punch " << tag_a << " <-> " << tag_b << ": "
              << (success ? "SUCCESS" : "FAILED") << "\n";
    if (!success) {
        std::cout << "(Expected for address-dependent mappers: the "
                     "reflexive port learned at the rendezvous is not the "
                     "one used toward the peer.)\n";
    }
    return success ? 0 : 2;
}
