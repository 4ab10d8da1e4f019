// STUN wire format + client/server, hairpin, and the future-work probes.
#include <gtest/gtest.h>

#include "harness/holepunch.hpp"
#include "harness/testrund.hpp"
#include "stun/turn.hpp"
#include "stun/stun_service.hpp"
#include "testutil.hpp"

using namespace gatekit;
using namespace gatekit::harness;
using gateway::DeviceProfile;

TEST(StunWire, MessageRoundTrip) {
    stun::Message m;
    m.type = stun::MessageType::BindingResponse;
    m.transaction = stun::TransactionId::from_seed(42);
    m.xor_mapped = net::Endpoint{net::Ipv4Addr(10, 0, 1, 10), 40001};
    const auto bytes = m.serialize();
    const auto g = stun::Message::parse(bytes);
    EXPECT_EQ(g.type, stun::MessageType::BindingResponse);
    EXPECT_EQ(g.transaction, m.transaction);
    ASSERT_TRUE(g.xor_mapped.has_value());
    EXPECT_EQ(*g.xor_mapped,
              (net::Endpoint{net::Ipv4Addr(10, 0, 1, 10), 40001}));
}

TEST(StunWire, XorActuallyObscuresAddress) {
    stun::Message m;
    m.type = stun::MessageType::BindingResponse;
    m.xor_mapped = net::Endpoint{net::Ipv4Addr(10, 0, 1, 10), 40001};
    const auto bytes = m.serialize();
    // The raw address must not appear verbatim (that is XOR-MAPPED's whole
    // point: NATs rewriting naked addresses in payloads cannot corrupt it).
    const std::uint8_t raw[] = {10, 0, 1, 10};
    const auto it = std::search(bytes.begin(), bytes.end(), std::begin(raw),
                                std::end(raw));
    EXPECT_EQ(it, bytes.end());
}

TEST(StunWire, RejectsBadCookieAndType) {
    stun::Message m;
    auto bytes = m.serialize();
    bytes[4] ^= 0xff;
    EXPECT_THROW(stun::Message::parse(bytes), net::ParseError);
    bytes[4] ^= 0xff;
    bytes[0] = 0x7f;
    EXPECT_THROW(stun::Message::parse(bytes), net::ParseError);
}

TEST(StunWire, TransactionIdsDiffer) {
    EXPECT_NE(stun::TransactionId::from_seed(1),
              stun::TransactionId::from_seed(2));
}

TEST(StunService, DirectQueryReturnsObservedAddress) {
    testutil::Net2 net;
    stun::StunServer server(net.b);
    stun::StunClient client(net.a);
    std::optional<stun::StunResult> result;
    client.query(net::Ipv4Addr(10, 0, 0, 1),
                 {net::Ipv4Addr(10, 0, 0, 2), stun::kDefaultPort},
                 [&](const stun::StunResult& r) { result = r; });
    net.loop.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->ok);
    // No NAT between the hosts: the reflexive address is the local one.
    EXPECT_EQ(result->reflexive.addr, net::Ipv4Addr(10, 0, 0, 1));
    EXPECT_TRUE(result->port_preserved);
    EXPECT_EQ(server.requests_served(), 1u);
}

TEST(StunService, QueryTimesOutThroughBlackHole) {
    testutil::LossyNet2 net;
    net.filter.set_predicate(
        [](bool, std::uint64_t, const sim::Frame&) { return true; });
    stun::StunClient client(net.a);
    std::optional<stun::StunResult> result;
    client.query(net::Ipv4Addr(10, 0, 0, 1),
                 {net::Ipv4Addr(10, 0, 0, 2), stun::kDefaultPort},
                 [&](const stun::StunResult& r) { result = r; });
    net.loop.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->ok);
    EXPECT_EQ(result->error, "timeout");
}

namespace {

DeviceProfile fw_profile() {
    DeviceProfile p;
    p.tag = "fw";
    p.hairpin = true;
    p.decrement_ttl = true;
    p.honor_record_route = true;
    return p;
}

struct FwBed {
    sim::EventLoop loop;
    Testbed tb{loop};
    Testrund rund{tb};
    int idx;

    explicit FwBed(DeviceProfile p = fw_profile())
        : idx(tb.add_device(std::move(p))) {}

    DeviceResults run(const CampaignConfig& cfg) {
        return rund.run_blocking(cfg).at(0);
    }
};

} // namespace

TEST(FutureWork, StunThroughPortPreservingNat) {
    FwBed bed;
    CampaignConfig cfg;
    cfg.stun = true;
    const auto r = bed.run(cfg);
    EXPECT_TRUE(r.stun.success);
    EXPECT_TRUE(r.stun.reflexive_correct);
    EXPECT_TRUE(r.stun.port_preserved);
    EXPECT_EQ(r.stun.mapping, stun::Mapping::EndpointIndependent);
}

TEST(FutureWork, StunClassifiesSequentialNat) {
    auto p = fw_profile();
    p.port_allocation = gateway::PortAllocation::Sequential;
    FwBed bed(p);
    CampaignConfig cfg;
    cfg.stun = true;
    const auto r = bed.run(cfg);
    EXPECT_TRUE(r.stun.success);
    EXPECT_TRUE(r.stun.reflexive_correct);
    EXPECT_FALSE(r.stun.port_preserved);
    // Per-5-tuple bindings with sequential ports: the two destinations
    // observe different mappings.
    EXPECT_EQ(r.stun.mapping, stun::Mapping::AddressDependent);
}

TEST(FutureWork, QuirksDetectTtlAndRecordRoute) {
    FwBed bed;
    CampaignConfig cfg;
    cfg.quirks = true;
    const auto r = bed.run(cfg);
    EXPECT_TRUE(r.quirks.decrements_ttl);
    EXPECT_TRUE(r.quirks.honors_record_route);
    EXPECT_TRUE(r.quirks.hairpins_udp);
}

TEST(FutureWork, QuirksDetectNonDecrementingDevice) {
    auto p = fw_profile();
    p.decrement_ttl = false;
    p.honor_record_route = false;
    p.hairpin = false;
    FwBed bed(p);
    CampaignConfig cfg;
    cfg.quirks = true;
    const auto r = bed.run(cfg);
    EXPECT_FALSE(r.quirks.decrements_ttl);
    EXPECT_FALSE(r.quirks.honors_record_route);
    EXPECT_FALSE(r.quirks.hairpins_udp);
}

TEST(FutureWork, BindingRateBoundedByTableSize) {
    auto p = fw_profile();
    p.max_tcp_bindings = 50;
    FwBed bed(p);
    CampaignConfig cfg;
    cfg.binding_rate = true;
    cfg.binding_rate_count = 120;
    const auto r = bed.run(cfg);
    EXPECT_EQ(r.binding_rate.attempted, 120);
    EXPECT_EQ(r.binding_rate.established, 50);
    EXPECT_GT(r.binding_rate.bindings_per_sec, 100.0);
}

TEST(FutureWork, BindingRateAllEstablishedUnderCap) {
    FwBed bed;
    CampaignConfig cfg;
    cfg.binding_rate = true;
    cfg.binding_rate_count = 100;
    const auto r = bed.run(cfg);
    EXPECT_EQ(r.binding_rate.established, 100);
}

TEST(Hairpin, UdpReachesSiblingSocketThroughWanAddress) {
    FwBed bed;
    auto& slot = bed.tb.slot(0);
    bed.tb.start_and_wait();

    // Socket A binds toward the server; socket B targets A's mapping.
    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 5600);
    auto& a = bed.tb.client().udp_open(slot.client_addr, 50001);
    net::Endpoint a_seen_from;
    int a_rx = 0;
    a.set_receive_handler([&](net::Endpoint src,
                              std::span<const std::uint8_t>,
                              const net::PacketView&) {
        a_seen_from = src;
        ++a_rx;
    });
    a.send_to({slot.server_addr, 5600}, {{'a'}});
    bed.loop.run();

    auto& b = bed.tb.client().udp_open(slot.client_addr, 50002);
    b.send_to({slot.gw_wan_addr, 50001}, {{'b'}});
    bed.loop.run();

    EXPECT_EQ(a_rx, 1);
    // A sees the hairpinned packet from B's *external* mapping.
    EXPECT_EQ(a_seen_from.addr, slot.gw_wan_addr);
    EXPECT_EQ(a_seen_from.port, 50002);
    (void)server_sock;
}

// Hairpin is forwarding: a datagram whose TTL would expire at the
// gateway draws a Time Exceeded and never reaches the sibling socket.
TEST(Hairpin, ExpiringTtlDrawsTimeExceeded) {
    FwBed bed;
    auto& slot = bed.tb.slot(0);
    bed.tb.start_and_wait();

    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 5600);
    auto& a = bed.tb.client().udp_open(slot.client_addr, 50001);
    int a_rx = 0;
    a.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t>,
                              const net::PacketView&) { ++a_rx; });
    a.send_to({slot.server_addr, 5600}, {{'a'}});
    bed.loop.run();

    auto& b = bed.tb.client().udp_open(slot.client_addr, 50002);
    int time_exceeded = 0;
    bed.tb.client().set_icmp_observer(
        [&](const net::PacketView&, const net::IcmpMessage& msg) {
            if (msg.type == net::IcmpType::TimeExceeded) ++time_exceeded;
        });
    for (const std::uint8_t ttl : {1, 0}) {
        stack::UdpSocket::SendOptions opts;
        opts.ttl = ttl;
        b.send_to({slot.gw_wan_addr, 50001}, {{'b'}}, opts);
        bed.loop.run();
    }
    EXPECT_EQ(a_rx, 0);
    EXPECT_EQ(time_exceeded, 2);
    (void)server_sock;
}

TEST(Hairpin, DisabledDeviceDeliversToGatewayInstead) {
    auto p = fw_profile();
    p.hairpin = false;
    FwBed bed(p);
    auto& slot = bed.tb.slot(0);
    bed.tb.start_and_wait();

    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 5600);
    auto& a = bed.tb.client().udp_open(slot.client_addr, 50001);
    int a_rx = 0;
    a.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t>,
                              const net::PacketView&) { ++a_rx; });
    a.send_to({slot.server_addr, 5600}, {{'a'}});
    bed.loop.run();

    auto& b = bed.tb.client().udp_open(slot.client_addr, 50002);
    b.send_to({slot.gw_wan_addr, 50001}, {{'b'}});
    bed.loop.run();
    EXPECT_EQ(a_rx, 0);
    (void)server_sock;
}

namespace {

/// Run the hole-punch scenario between two profiles; true on success.
bool punch(const DeviceProfile& pa, const DeviceProfile& pb) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int ia = tb.add_device(pa);
    const int ib = tb.add_device(pb);
    tb.start_and_wait();

    auto& rendezvous = tb.client(); // silence unused warnings
    (void)rendezvous;
    auto& rv = tb.server().udp_open(net::Ipv4Addr::any(), 9987);
    net::Endpoint refl_a, refl_b;
    rv.set_receive_handler([&](net::Endpoint src,
                               std::span<const std::uint8_t> p,
                               const net::PacketView&) {
        if (!p.empty() && p[0] == 'A') refl_a = src;
        if (!p.empty() && p[0] == 'B') refl_b = src;
    });

    auto& sa = tb.client().udp_open(tb.slot(ia).client_addr, 46000,
                                    tb.slot(ia).client_if);
    auto& sb = tb.client().udp_open(tb.slot(ib).client_addr, 46000,
                                    tb.slot(ib).client_if);
    bool heard_a = false, heard_b = false;
    sa.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t> p,
                               const net::PacketView&) {
        if (!p.empty() && p[0] == 'P') heard_a = true;
    });
    sb.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t> p,
                               const net::PacketView&) {
        if (!p.empty() && p[0] == 'P') heard_b = true;
    });

    sa.send_to({tb.slot(ia).server_addr, 9987}, {{'A'}});
    sb.send_to({tb.slot(ib).server_addr, 9987}, {{'B'}});
    loop.run_for(std::chrono::milliseconds(100));
    if (refl_a.port == 0 || refl_b.port == 0) return false;
    for (int round = 0; round < 3; ++round) {
        sa.send_to(refl_b, {{'P'}});
        sb.send_to(refl_a, {{'P'}});
        loop.run_for(std::chrono::milliseconds(200));
    }
    return heard_a && heard_b;
}

DeviceProfile punch_profile(gateway::PortAllocation alloc) {
    DeviceProfile p;
    p.tag = alloc == gateway::PortAllocation::PreserveSourcePort ? "pp"
                                                                 : "seq";
    p.port_allocation = alloc;
    return p;
}

} // namespace

TEST(HolePunch, SucceedsBetweenPortPreservingNats) {
    EXPECT_TRUE(
        punch(punch_profile(gateway::PortAllocation::PreserveSourcePort),
              punch_profile(gateway::PortAllocation::PreserveSourcePort)));
}

TEST(HolePunch, FailsBetweenSequentialMappers) {
    // Both sides learn a rendezvous-facing mapping that differs from the
    // mapping used toward the peer: the punches never line up.
    EXPECT_FALSE(
        punch(punch_profile(gateway::PortAllocation::Sequential),
              punch_profile(gateway::PortAllocation::Sequential)));
}

TEST(HolePunch, MixedPairSucceedsOneWayOnly) {
    // Preserve <-> sequential: the preserving side's mapping is stable,
    // so the sequential peer can reach it, but the reverse punch misses;
    // full bidirectional connectivity still fails.
    EXPECT_FALSE(
        punch(punch_profile(gateway::PortAllocation::PreserveSourcePort),
              punch_profile(gateway::PortAllocation::Sequential)));
}

// --- TURN relay and the ICE-style connectivity ladder ------------------------

TEST(Turn, AllocateAndRelayBothDirections) {
    testutil::Net2 net;
    stun::TurnServer server(net.b, net::Ipv4Addr(10, 0, 0, 2));
    stun::TurnClient alice(net.a, net::Ipv4Addr(10, 0, 0, 1),
                           {net::Ipv4Addr(10, 0, 0, 2), stun::kTurnPort});
    bool allocated = false;
    net::Endpoint relay;
    alice.allocate([&](bool ok, net::Endpoint r) {
        allocated = ok;
        relay = r;
    });
    net.loop.run_for(std::chrono::seconds(2));
    ASSERT_TRUE(allocated);
    EXPECT_EQ(relay.addr, net::Ipv4Addr(10, 0, 0, 2));
    EXPECT_EQ(server.allocations(), 1u);

    // A "peer" (another socket on host a) talks to the relay address.
    auto& peer = net.a.udp_open(net::Ipv4Addr(10, 0, 0, 1), 45500);
    bool peer_heard = false;
    peer.set_receive_handler([&](net::Endpoint src,
                                 std::span<const std::uint8_t> p,
                                 const net::PacketView&) {
        if (src == relay && !p.empty() && p[0] == 'x') peer_heard = true;
    });
    net::Endpoint peer_as_seen;
    bool alice_heard = false;
    alice.set_data_handler(
        [&](net::Endpoint from, std::span<const std::uint8_t> p) {
            if (!p.empty() && p[0] == 'y') {
                alice_heard = true;
                peer_as_seen = from;
            }
        });
    peer.send_to(relay, {{'y'}});
    net.loop.run();
    ASSERT_TRUE(alice_heard);
    EXPECT_EQ(peer_as_seen,
              (net::Endpoint{net::Ipv4Addr(10, 0, 0, 1), 45500}));
    alice.send(peer_as_seen, {'x'});
    net.loop.run();
    EXPECT_TRUE(peer_heard);
    EXPECT_GE(server.relayed_packets(), 2u);
}

TEST(Turn, AllocationFailsWithoutServer) {
    testutil::Net2 net;
    stun::TurnClient alice(net.a, net::Ipv4Addr(10, 0, 0, 1),
                           {net::Ipv4Addr(10, 0, 0, 2), stun::kTurnPort});
    bool called = false, ok = true;
    alice.allocate([&](bool success, net::Endpoint) {
        called = true;
        ok = success;
    });
    net.loop.run();
    EXPECT_TRUE(called);
    EXPECT_FALSE(ok);
}

TEST(P2pLadder, PunchablePairUsesDirectPath) {
    const auto r =
        establish_p2p(punch_profile(gateway::PortAllocation::PreserveSourcePort),
                      punch_profile(gateway::PortAllocation::PreserveSourcePort));
    EXPECT_EQ(r.path, P2pPath::Punched);
    EXPECT_TRUE(r.bidirectional);
}

TEST(P2pLadder, UnpunchablePairFallsBackToRelay) {
    const auto r =
        establish_p2p(punch_profile(gateway::PortAllocation::Sequential),
                      punch_profile(gateway::PortAllocation::Sequential));
    EXPECT_EQ(r.path, P2pPath::Relayed);
    EXPECT_TRUE(r.bidirectional);
}
