// Interface/ARP and VLAN switch behavior.
#include <gtest/gtest.h>

#include "testutil.hpp"

using namespace gatekit;
using testutil::Net2;

TEST(Netif, ArpResolutionAndDelivery) {
    Net2 net;
    bool got = false;
    auto& sock_b = net.b.udp_open(net::Ipv4Addr::any(), 7777);
    sock_b.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t> p,
            const net::PacketView&) {
            got = true;
            EXPECT_EQ(src.addr, net::Ipv4Addr(10, 0, 0, 1));
            EXPECT_EQ(p.size(), 3u);
        });
    auto& sock_a = net.a.udp_open(net::Ipv4Addr::any(), 0);
    sock_a.send_to({net::Ipv4Addr(10, 0, 0, 2), 7777}, {{1, 2, 3}});
    net.loop.run();
    EXPECT_TRUE(got);
    // Both sides learned each other through the exchange.
    EXPECT_TRUE(net.ia.arp_cache().lookup(net::Ipv4Addr(10, 0, 0, 2)));
    EXPECT_TRUE(net.ib.arp_cache().lookup(net::Ipv4Addr(10, 0, 0, 1)));
}

TEST(Netif, PacketsQueueBehindArp) {
    Net2 net;
    int got = 0;
    auto& sock_b = net.b.udp_open(net::Ipv4Addr::any(), 7777);
    sock_b.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t>,
            const net::PacketView&) { ++got; });
    auto& sock_a = net.a.udp_open(net::Ipv4Addr::any(), 0);
    // Three sends before any ARP reply can arrive: all must be delivered.
    for (int i = 0; i < 3; ++i)
        sock_a.send_to({net::Ipv4Addr(10, 0, 0, 2), 7777}, {{0x55}});
    net.loop.run();
    EXPECT_EQ(got, 3);
    // Only one ARP request should have been sent for the three packets:
    // total frames from A = 1 ARP + 3 UDP.
    EXPECT_EQ(net.link.frames_sent(sim::Link::Side::A), 4u);
}

TEST(Netif, NoRouteFails) {
    Net2 net;
    auto& sock_a = net.a.udp_open(net::Ipv4Addr::any(), 0);
    EXPECT_FALSE(sock_a.send_to({net::Ipv4Addr(99, 0, 0, 1), 1}, {{1}}));
}

TEST(Netif, UnconfiguredIfaceDoesNotAnswerArp) {
    Net2 net;
    net.ib.deconfigure();
    auto& sock_a = net.a.udp_open(net::Ipv4Addr::any(), 0);
    sock_a.send_to({net::Ipv4Addr(10, 0, 0, 2), 7777}, {{1}});
    net.loop.run();
    EXPECT_FALSE(net.ia.arp_cache().lookup(net::Ipv4Addr(10, 0, 0, 2)));
}

namespace {

/// Build: hostA -- switch(access vlan X) ... with hosts on VLAN
/// subinterfaces behind a trunk.
struct SwitchNet {
    sim::EventLoop loop;
    l2::VlanSwitch sw{loop};
    // trunk host carries two vlan subinterfaces
    sim::Link trunk_link{loop, 100'000'000, std::chrono::microseconds(1)};
    sim::Link acc1_link{loop, 100'000'000, std::chrono::microseconds(1)};
    sim::Link acc2_link{loop, 100'000'000, std::chrono::microseconds(1)};
    stack::Host trunk_host{loop, "trunk", net::MacAddr::from_index(10)};
    stack::Host h1{loop, "h1", net::MacAddr::from_index(11)};
    stack::Host h2{loop, "h2", net::MacAddr::from_index(12)};
    stack::Iface& t1;
    stack::Iface& t2;
    stack::Iface& i1;
    stack::Iface& i2;

    SwitchNet()
        : t1(trunk_host.add_iface(100)), t2(trunk_host.add_iface(200)),
          i1(h1.add_iface()), i2(h2.add_iface()) {
        const int p_trunk = sw.add_trunk_port();
        const int p1 = sw.add_access_port(100);
        const int p2 = sw.add_access_port(200);
        sw.connect(p_trunk, trunk_link, sim::Link::Side::B);
        sw.connect(p1, acc1_link, sim::Link::Side::B);
        sw.connect(p2, acc2_link, sim::Link::Side::B);
        trunk_host.nic().connect(trunk_link, sim::Link::Side::A);
        h1.nic().connect(acc1_link, sim::Link::Side::A);
        h2.nic().connect(acc2_link, sim::Link::Side::A);

        t1.configure(net::Ipv4Addr(192, 168, 100, 1), 24);
        t2.configure(net::Ipv4Addr(192, 168, 200, 1), 24);
        i1.configure(net::Ipv4Addr(192, 168, 100, 2), 24);
        i2.configure(net::Ipv4Addr(192, 168, 200, 2), 24);
        trunk_host.add_route(net::Ipv4Addr(192, 168, 100, 0), 24, t1);
        trunk_host.add_route(net::Ipv4Addr(192, 168, 200, 0), 24, t2);
        h1.add_route(net::Ipv4Addr(192, 168, 100, 0), 24, i1);
        h2.add_route(net::Ipv4Addr(192, 168, 200, 0), 24, i2);
    }
};

} // namespace

TEST(VlanSwitch, TrunkToAccessDelivery) {
    SwitchNet net;
    bool got = false;
    auto& sock = net.h1.udp_open(net::Ipv4Addr::any(), 5000);
    sock.set_receive_handler([&](net::Endpoint,
                                 std::span<const std::uint8_t>,
                                 const net::PacketView&) { got = true; });
    auto& out = net.trunk_host.udp_open(net::Ipv4Addr::any(), 0);
    out.send_to({net::Ipv4Addr(192, 168, 100, 2), 5000}, {{9}});
    net.loop.run();
    EXPECT_TRUE(got);
    EXPECT_GT(net.sw.mac_table_size(), 0u);
}

TEST(VlanSwitch, VlansAreIsolated) {
    SwitchNet net;
    // h2 listens on the same port/address pattern but lives in VLAN 200
    // with a different subnet. Traffic for VLAN 100 must never reach it.
    int got_h2 = 0;
    auto& sock2 = net.h2.udp_open(net::Ipv4Addr::any(), 5000);
    sock2.set_receive_handler([&](net::Endpoint,
                                  std::span<const std::uint8_t>,
                                  const net::PacketView&) { ++got_h2; });
    int got_h1 = 0;
    auto& sock1 = net.h1.udp_open(net::Ipv4Addr::any(), 5000);
    sock1.set_receive_handler([&](net::Endpoint,
                                  std::span<const std::uint8_t>,
                                  const net::PacketView&) { ++got_h1; });
    auto& out = net.trunk_host.udp_open(net::Ipv4Addr::any(), 0);
    out.send_to({net::Ipv4Addr(192, 168, 100, 2), 5000}, {{9}});
    net.loop.run();
    EXPECT_EQ(got_h1, 1);
    EXPECT_EQ(got_h2, 0);
}

TEST(VlanSwitch, BidirectionalAcrossTrunk) {
    SwitchNet net;
    // Full request/response between h2 and the trunk host on VLAN 200.
    bool reply_seen = false;
    auto& server = net.trunk_host.udp_open(net::Ipv4Addr::any(), 6000);
    server.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t>,
            const net::PacketView&) {
            server.send_to(src, {{7, 7}});
        });
    auto& client = net.h2.udp_open(net::Ipv4Addr::any(), 0);
    client.set_receive_handler([&](net::Endpoint,
                                   std::span<const std::uint8_t> p,
                                   const net::PacketView&) {
        reply_seen = p.size() == 2;
    });
    client.send_to({net::Ipv4Addr(192, 168, 200, 1), 6000}, {{1}});
    net.loop.run();
    EXPECT_TRUE(reply_seen);
}

TEST(VlanSwitch, LearnsAndStopsFlooding) {
    SwitchNet net;
    auto& server = net.h1.udp_open(net::Ipv4Addr::any(), 5000);
    server.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t>,
            const net::PacketView&) { server.send_to(src, {{1}}); });
    auto& client = net.trunk_host.udp_open(net::Ipv4Addr::any(), 0);
    client.send_to({net::Ipv4Addr(192, 168, 100, 2), 5000}, {{1}});
    net.loop.run();
    const auto frames_to_h2 = net.acc2_link.frames_sent(sim::Link::Side::B);
    // The only frames h2 may have seen are the initial broadcast ARP
    // request flood; learned unicast traffic must not reach it.
    EXPECT_LE(frames_to_h2, 1u);
}
