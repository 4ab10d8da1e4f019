// Host-level UDP and ICMP behavior.
#include <gtest/gtest.h>

#include "net/udp.hpp"
#include "testutil.hpp"

using namespace gatekit;
using testutil::Net2;

TEST(HostUdp, EchoRoundTrip) {
    Net2 net;
    auto& server = net.b.udp_open(net::Ipv4Addr::any(), 9000);
    server.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t> p,
            const net::PacketView&) {
            server.send_to(src, net::Bytes(p.begin(), p.end()));
        });
    net::Bytes reply;
    auto& client = net.a.udp_open(net::Ipv4Addr::any(), 0);
    client.set_receive_handler([&](net::Endpoint,
                                   std::span<const std::uint8_t> p,
                                   const net::PacketView&) {
        reply.assign(p.begin(), p.end());
    });
    client.send_to({net::Ipv4Addr(10, 0, 0, 2), 9000}, {{'h', 'i'}});
    net.loop.run();
    EXPECT_EQ(reply, (net::Bytes{'h', 'i'}));
}

TEST(HostUdp, ClosedPortTriggersPortUnreachable) {
    Net2 net;
    bool got_icmp = false;
    auto& client = net.a.udp_open(net::Ipv4Addr::any(), 0);
    net.a.set_icmp_observer([&](const net::PacketView& outer,
                                const net::IcmpMessage& msg) {
        if (!msg.is_error()) return;
        got_icmp = true;
        EXPECT_EQ(msg.type, net::IcmpType::DestUnreachable);
        EXPECT_EQ(msg.code, net::icmp_code::kPortUnreachable);
        EXPECT_EQ(outer.src(), net::Ipv4Addr(10, 0, 0, 2));
    });
    client.send_to({net::Ipv4Addr(10, 0, 0, 2), 4444}, {{1}});
    net.loop.run();
    EXPECT_TRUE(got_icmp);
}

TEST(HostUdp, IcmpErrorsSuppressible) {
    Net2 net;
    net.b.set_icmp_enabled(false);
    bool got_icmp = false;
    auto& client = net.a.udp_open(net::Ipv4Addr::any(), 0);
    net.a.set_icmp_observer(
        [&](const net::PacketView&, const net::IcmpMessage& msg) {
            if (msg.is_error()) got_icmp = true;
        });
    client.send_to({net::Ipv4Addr(10, 0, 0, 2), 4444}, {{1}});
    net.loop.run();
    EXPECT_FALSE(got_icmp);
}

TEST(HostIcmp, PingRoundTrip) {
    Net2 net;
    bool got_reply = false;
    net.a.set_icmp_observer([&](const net::PacketView& pkt,
                                const net::IcmpMessage& msg) {
        if (msg.type == net::IcmpType::EchoReply) {
            got_reply = true;
            EXPECT_EQ(msg.echo_id(), 0x77);
            EXPECT_EQ(msg.echo_seq(), 3);
            EXPECT_EQ(pkt.src(), net::Ipv4Addr(10, 0, 0, 2));
        }
    });
    net.a.send_icmp(net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                    net::IcmpMessage::make_echo(false, 0x77, 3, {1, 2}));
    net.loop.run();
    EXPECT_TRUE(got_reply);
}

TEST(HostIcmp, UnknownProtocolTriggersProtoUnreachable) {
    Net2 net;
    bool got = false;
    net.a.set_icmp_observer([&](const net::PacketView&,
                                const net::IcmpMessage& msg) {
        if (msg.type == net::IcmpType::DestUnreachable &&
            msg.code == net::icmp_code::kProtoUnreachable)
            got = true;
    });
    net::Ipv4Packet pkt;
    pkt.h.protocol = 99; // no handler for this protocol
    pkt.h.src = net::Ipv4Addr(10, 0, 0, 1);
    pkt.h.dst = net::Ipv4Addr(10, 0, 0, 2);
    pkt.payload = {1, 2, 3, 4, 5, 6, 7, 8};
    net.a.send_raw(net.ia, pkt.serialize(), pkt.h.dst);
    net.loop.run();
    EXPECT_TRUE(got);
}

// Hosts do not reassemble: a fragment reaches no socket, even one whose
// first 8 bytes read as a UDP header for a bound port, and draws no Port
// Unreachable (RFC 1122 §3.2.2 forbids one about a non-initial
// fragment).
TEST(HostUdp, FragmentsAreNotDelivered) {
    Net2 net;
    int received = 0;
    auto& server = net.b.udp_open(net::Ipv4Addr::any(), 9000);
    server.set_receive_handler([&](net::Endpoint,
                                   std::span<const std::uint8_t>,
                                   const net::PacketView&) { ++received; });
    int errors = 0;
    net.a.set_icmp_observer(
        [&](const net::PacketView&, const net::IcmpMessage& msg) {
            if (msg.is_error()) ++errors;
        });
    const auto udp = [](std::uint16_t dport) {
        net::Ipv4Packet pkt;
        pkt.h.protocol = net::proto::kUdp;
        pkt.h.src = net::Ipv4Addr(10, 0, 0, 1);
        pkt.h.dst = net::Ipv4Addr(10, 0, 0, 2);
        // Source port 4000, `dport`, length 12, checksum 0 (disabled).
        pkt.payload = {0x0f, 0xa0, static_cast<std::uint8_t>(dport >> 8),
                       static_cast<std::uint8_t>(dport), 0, 12, 0, 0,
                       'd', 'a', 't', 'a'};
        return pkt;
    };
    for (const std::uint16_t dport : {9000, 9001}) {
        auto later = udp(dport);
        later.h.frag_offset = 185;
        net.a.send_raw(net.ia, later.serialize(), later.h.dst);
        auto first = udp(dport);
        first.h.more_fragments = true;
        net.a.send_raw(net.ia, first.serialize(), first.h.dst);
    }
    net.loop.run();
    EXPECT_EQ(received, 0);
    EXPECT_EQ(errors, 0);

    // The same bytes unfragmented are a datagram, and a closed port
    // answers.
    const net::Ipv4Addr b_addr(10, 0, 0, 2);
    net.a.send_raw(net.ia, udp(9000).serialize(), b_addr);
    net.a.send_raw(net.ia, udp(9001).serialize(), b_addr);
    net.loop.run();
    EXPECT_EQ(received, 1);
    EXPECT_EQ(errors, 1);
}

// RFC 1122 §3.2.2: no ICMP error about a datagram sent to a broadcast
// address, whichever transport it carries.
TEST(HostIcmp, NoErrorAboutABroadcast) {
    Net2 net;
    int errors = 0;
    net.a.set_icmp_observer(
        [&](const net::PacketView&, const net::IcmpMessage& msg) {
            if (msg.is_error()) ++errors;
        });
    const auto datagram = [](std::uint8_t protocol, net::Ipv4Addr dst) {
        net::Ipv4Packet pkt;
        pkt.h.protocol = protocol;
        pkt.h.src = net::Ipv4Addr(10, 0, 0, 1);
        pkt.h.dst = dst;
        pkt.payload = protocol == net::proto::kUdp
                          ? net::UdpDatagram{4000, 4444, {1}}.serialize(
                                pkt.h.src, dst)
                          : net::Bytes{1, 2, 3, 4, 5, 6, 7, 8};
        return pkt.serialize();
    };
    for (const std::uint8_t protocol : {std::uint8_t{99}, net::proto::kUdp})
        net.a.send_raw(net.ia,
                       datagram(protocol, net::Ipv4Addr::broadcast()),
                       net::Ipv4Addr::broadcast());
    net.loop.run();
    EXPECT_EQ(errors, 0);

    // Sent to b's own address, the same datagrams draw one error each.
    for (const std::uint8_t protocol : {std::uint8_t{99}, net::proto::kUdp})
        net.a.send_raw(net.ia, datagram(protocol, net::Ipv4Addr(10, 0, 0, 2)),
                       net::Ipv4Addr(10, 0, 0, 2));
    net.loop.run();
    EXPECT_EQ(errors, 2);
}

TEST(HostUdp, TtlOverrideOnWire) {
    Net2 net;
    std::uint8_t seen_ttl = 0;
    auto& server = net.b.udp_open(net::Ipv4Addr::any(), 9000);
    server.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t>,
            const net::PacketView& pkt) { seen_ttl = pkt.ttl(); });
    auto& client = net.a.udp_open(net::Ipv4Addr::any(), 0);
    stack::UdpSocket::SendOptions opts;
    opts.ttl = 5;
    client.send_to({net::Ipv4Addr(10, 0, 0, 2), 9000}, {{1}}, opts);
    net.loop.run();
    EXPECT_EQ(seen_ttl, 5);
}

TEST(HostUdp, RecordRouteOptionCarried) {
    Net2 net;
    std::vector<net::Ipv4Addr> route;
    auto& server = net.b.udp_open(net::Ipv4Addr::any(), 9000);
    server.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t>,
            const net::PacketView& pkt) {
            route = net::recorded_route(pkt.options());
        });
    auto& client = net.a.udp_open(net::Ipv4Addr::any(), 0);
    stack::UdpSocket::SendOptions opts;
    opts.ip_options = net::Ipv4Packet::make_record_route_option(4);
    client.send_to({net::Ipv4Addr(10, 0, 0, 2), 9000}, {{1}}, opts);
    net.loop.run();
    // Direct link: no router filled anything in, but the option survived.
    EXPECT_TRUE(route.empty());
}

TEST(HostUdp, LocalDelivery) {
    Net2 net;
    // Host talks to its own address without touching the wire.
    bool got = false;
    auto& server = net.a.udp_open(net::Ipv4Addr::any(), 1234);
    server.set_receive_handler([&](net::Endpoint src,
                                   std::span<const std::uint8_t>,
                                   const net::PacketView&) {
        got = true;
        EXPECT_EQ(src.addr, net::Ipv4Addr(10, 0, 0, 1));
    });
    auto& client = net.a.udp_open(net::Ipv4Addr(10, 0, 0, 1), 0);
    client.send_to({net::Ipv4Addr(10, 0, 0, 1), 1234}, {{1}});
    net.loop.run();
    EXPECT_TRUE(got);
    EXPECT_EQ(net.link.frames_sent(sim::Link::Side::A), 0u);
}

TEST(HostUdp, EphemeralPortsDistinct) {
    Net2 net;
    auto& s1 = net.a.udp_open(net::Ipv4Addr::any(), 0);
    auto& s2 = net.a.udp_open(net::Ipv4Addr::any(), 0);
    EXPECT_NE(s1.local().port, s2.local().port);
    EXPECT_GE(s1.local().port, 33000);
}
