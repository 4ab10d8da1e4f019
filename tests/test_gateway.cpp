// End-to-end gateway datapath tests on the Figure-1 testbed: DHCP
// bring-up, NAT translation, binding expiry/refresh semantics, port
// allocation, capacity limits, unknown-protocol policies, ICMP
// translation, and the DNS proxy.
#include <gtest/gtest.h>

#include "harness/testbed.hpp"
#include "stack/dccp_endpoint.hpp"
#include "stack/sctp_endpoint.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"

using namespace gatekit;
using harness::Testbed;
using gateway::DeviceProfile;

namespace {

DeviceProfile base_profile() {
    DeviceProfile p;
    p.tag = "test";
    p.udp.initial = std::chrono::seconds(30);
    p.udp.inbound_refresh = std::chrono::seconds(60);
    p.udp.outbound_refresh = std::chrono::seconds(60);
    p.tcp_established_timeout = std::chrono::minutes(30);
    p.icmp_tcp = gateway::IcmpTranslationSet::all();
    p.icmp_udp = gateway::IcmpTranslationSet::all();
    p.unknown_proto = gateway::UnknownProtocolPolicy::TranslateIpOnly;
    p.dns_tcp = gateway::DnsTcpMode::ProxyTcp;
    return p;
}

struct Bed {
    sim::EventLoop loop;
    Testbed tb{loop};
    int idx;

    explicit Bed(DeviceProfile p = base_profile()) : idx(tb.add_device(p)) {
        tb.start_and_wait();
    }
    Testbed::DeviceSlot& slot() { return tb.slot(idx); }
};

} // namespace

TEST(TestbedBringup, DhcpOnBothSides) {
    Bed bed;
    auto& slot = bed.slot();
    EXPECT_TRUE(bed.tb.all_ready());
    EXPECT_EQ(slot.gw_wan_addr, net::Ipv4Addr(10, 0, 1, 10));
    EXPECT_EQ(slot.client_addr, net::Ipv4Addr(192, 168, 1, 100));
    EXPECT_TRUE(slot.gw->ready());
}

TEST(GatewayNat, UdpOutboundAndReply) {
    Bed bed;
    auto& slot = bed.slot();

    net::Endpoint seen_src;
    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    server_sock.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t>,
            const net::PacketView&) {
            seen_src = src;
            server_sock.send_to(src, {{'o', 'k'}});
        });

    net::Bytes reply;
    auto& client_sock =
        bed.tb.client().udp_open(slot.client_addr, 40000);
    client_sock.set_receive_handler([&](net::Endpoint,
                                        std::span<const std::uint8_t> p,
                                        const net::PacketView&) {
        reply.assign(p.begin(), p.end());
    });
    client_sock.send_to({slot.server_addr, 7000}, {{'h', 'i'}});
    bed.loop.run();

    // The server saw the gateway's WAN address with the preserved port.
    EXPECT_EQ(seen_src.addr, slot.gw_wan_addr);
    EXPECT_EQ(seen_src.port, 40000);
    EXPECT_EQ(reply, (net::Bytes{'o', 'k'}));
    EXPECT_EQ(slot.gw->nat().udp_table().size(), 1u);
}

TEST(GatewayNat, UdpBindingExpires) {
    Bed bed;
    auto& slot = bed.slot();

    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    net::Endpoint client_ext;
    server_sock.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t>,
            const net::PacketView&) { client_ext = src; });

    int client_got = 0;
    auto& client_sock = bed.tb.client().udp_open(slot.client_addr, 41000);
    client_sock.set_receive_handler([&](net::Endpoint,
                                        std::span<const std::uint8_t>,
                                        const net::PacketView&) {
        ++client_got;
    });
    client_sock.send_to({slot.server_addr, 7000}, {{1}});
    bed.loop.run();
    ASSERT_NE(client_ext.port, 0);

    // Within the 30 s initial timeout: response passes.
    bed.loop.run_for(std::chrono::seconds(10));
    server_sock.send_to(client_ext, {{2}});
    bed.loop.run();
    EXPECT_EQ(client_got, 1);

    // The inbound packet confirmed the binding (60 s timer). 50 s later
    // it is still alive; 70 s after THAT refresh it is gone.
    bed.loop.run_for(std::chrono::seconds(50));
    server_sock.send_to(client_ext, {{3}});
    bed.loop.run();
    EXPECT_EQ(client_got, 2);

    bed.loop.run_for(std::chrono::seconds(70));
    server_sock.send_to(client_ext, {{4}});
    bed.loop.run();
    EXPECT_EQ(client_got, 2); // dropped: binding expired
}

TEST(GatewayNat, SequentialPortAllocation) {
    auto p = base_profile();
    p.port_allocation = gateway::PortAllocation::Sequential;
    p.pool_begin = 25000;
    Bed bed(p);
    auto& slot = bed.slot();

    std::vector<std::uint16_t> seen_ports;
    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    server_sock.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t>,
            const net::PacketView&) { seen_ports.push_back(src.port); });

    auto& s1 = bed.tb.client().udp_open(slot.client_addr, 40001);
    auto& s2 = bed.tb.client().udp_open(slot.client_addr, 40002);
    s1.send_to({slot.server_addr, 7000}, {{1}});
    bed.loop.run();
    s2.send_to({slot.server_addr, 7000}, {{1}});
    bed.loop.run();
    ASSERT_EQ(seen_ports.size(), 2u);
    EXPECT_EQ(seen_ports[0], 25000);
    EXPECT_EQ(seen_ports[1], 25001);
}

TEST(GatewayNat, BindingCapacityLimit) {
    auto p = base_profile();
    p.max_tcp_bindings = 4;
    Bed bed(p);
    auto& slot = bed.slot();

    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    int server_got = 0;
    server_sock.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t>,
            const net::PacketView&) { ++server_got; });

    for (int i = 0; i < 8; ++i) {
        auto& sock = bed.tb.client().udp_open(
            slot.client_addr, static_cast<std::uint16_t>(42000 + i));
        sock.send_to({slot.server_addr, 7000}, {{1}});
    }
    bed.loop.run();
    EXPECT_EQ(server_got, 4); // the other four flows had no binding
    EXPECT_EQ(slot.gw->nat().udp_table().size(), 4u);
}

TEST(GatewayNat, TcpThroughNat) {
    Bed bed;
    auto& slot = bed.slot();

    auto& lst = bed.tb.server().tcp_listen(8080);
    net::Ipv4Addr seen_peer;
    lst.set_accept_handler([&](stack::TcpSocket& conn) {
        seen_peer = conn.remote().addr;
        conn.on_data = [&conn](std::span<const std::uint8_t> d) {
            conn.send(net::Bytes(d.begin(), d.end()));
        };
    });

    auto& conn = bed.tb.client().tcp_connect(
        slot.client_addr, 0, {slot.server_addr, 8080});
    net::Bytes reply;
    conn.on_established = [&] { conn.send({'t', 'c', 'p'}); };
    conn.on_data = [&](std::span<const std::uint8_t> d) {
        reply.assign(d.begin(), d.end());
    };
    bed.loop.run();
    EXPECT_EQ(reply, (net::Bytes{'t', 'c', 'p'}));
    EXPECT_EQ(seen_peer, slot.gw_wan_addr);
    EXPECT_EQ(slot.gw->nat().tcp_table().size(), 1u);
}

TEST(GatewayNat, TcpBindingExpiryBlocksInbound) {
    auto p = base_profile();
    p.tcp_established_timeout = std::chrono::minutes(2);
    Bed bed(p);
    auto& slot = bed.slot();

    auto& lst = bed.tb.server().tcp_listen(8080);
    stack::TcpSocket* server_conn = nullptr;
    lst.set_accept_handler([&](stack::TcpSocket& conn) {
        server_conn = &conn;
        conn.on_error = [](const std::string&) {};
    });
    auto& conn = bed.tb.client().tcp_connect(
        slot.client_addr, 0, {slot.server_addr, 8080});
    int client_got = 0;
    conn.on_data = [&](std::span<const std::uint8_t>) { ++client_got; };
    conn.on_error = [](const std::string&) {};
    bed.loop.run();
    ASSERT_NE(server_conn, nullptr);
    ASSERT_TRUE(conn.established());

    // Idle past the 2 min TCP binding timeout, then server pushes data.
    bed.loop.run_for(std::chrono::minutes(3));
    server_conn->send({'x'});
    bed.loop.run_for(std::chrono::minutes(10)); // let retransmissions die
    EXPECT_EQ(client_got, 0);
}

TEST(GatewayNat, TcpRstRemovesBinding) {
    Bed bed;
    auto& slot = bed.slot();
    auto& lst = bed.tb.server().tcp_listen(8080);
    lst.set_accept_handler([](stack::TcpSocket& conn) {
        conn.on_error = [](const std::string&) {};
    });
    auto& conn = bed.tb.client().tcp_connect(
        slot.client_addr, 0, {slot.server_addr, 8080});
    conn.on_established = [&] { conn.abort(); };
    bed.loop.run();
    EXPECT_EQ(slot.gw->nat().tcp_table().size(), 0u);
}

TEST(GatewayNat, PingThroughNat) {
    Bed bed;
    auto& slot = bed.slot();
    bool got_reply = false;
    bed.tb.client().set_icmp_observer([&](const net::PacketView& pkt,
                                          const net::IcmpMessage& msg) {
        if (msg.type == net::IcmpType::EchoReply &&
            pkt.src() == slot.server_addr)
            got_reply = true;
    });
    bed.tb.client().send_icmp(slot.client_addr, slot.server_addr,
                              net::IcmpMessage::make_echo(false, 42, 1));
    bed.loop.run();
    EXPECT_TRUE(got_reply);
}

TEST(GatewayNat, TtlDecrementedWhenEnabled) {
    Bed bed;
    auto& slot = bed.slot();
    std::uint8_t seen_ttl = 0;
    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    server_sock.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t>,
            const net::PacketView& pkt) { seen_ttl = pkt.ttl(); });
    auto& sock = bed.tb.client().udp_open(slot.client_addr, 0);
    stack::UdpSocket::SendOptions opts;
    opts.ttl = 10;
    sock.send_to({slot.server_addr, 7000}, {{1}}, opts);
    bed.loop.run();
    EXPECT_EQ(seen_ttl, 9);
}

TEST(GatewayNat, TtlNotDecrementedWhenDisabled) {
    auto p = base_profile();
    p.decrement_ttl = false;
    Bed bed(p);
    auto& slot = bed.slot();
    std::uint8_t seen_ttl = 0;
    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    server_sock.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t>,
            const net::PacketView& pkt) { seen_ttl = pkt.ttl(); });
    auto& sock = bed.tb.client().udp_open(slot.client_addr, 0);
    stack::UdpSocket::SendOptions opts;
    opts.ttl = 10;
    sock.send_to({slot.server_addr, 7000}, {{1}}, opts);
    bed.loop.run();
    EXPECT_EQ(seen_ttl, 10);
}

TEST(GatewayUnknownProto, SctpWorksThroughIpOnlyTranslation) {
    Bed bed; // base profile: TranslateIpOnly
    auto& slot = bed.slot();
    auto& server_ep = bed.tb.server().sctp_open(slot.server_addr, 9899);
    server_ep.listen();
    auto& client_ep = bed.tb.client().sctp_open(slot.client_addr, 9899);
    bool up = false;
    client_ep.on_established = [&] { up = true; };
    client_ep.connect({slot.server_addr, 9899});
    bed.loop.run_for(std::chrono::seconds(30));
    EXPECT_TRUE(up);
}

TEST(GatewayUnknownProto, DccpFailsThroughIpOnlyTranslation) {
    Bed bed; // base profile: TranslateIpOnly — checksum covers pseudo-hdr
    auto& slot = bed.slot();
    auto& server_ep = bed.tb.server().dccp_open(slot.server_addr, 9899);
    server_ep.listen();
    auto& client_ep = bed.tb.client().dccp_open(slot.client_addr, 9899);
    std::string err;
    client_ep.on_error = [&](const std::string& e) { err = e; };
    client_ep.connect({slot.server_addr, 9899});
    bed.loop.run_for(std::chrono::seconds(30));
    EXPECT_EQ(err, "DCCP connection timed out");
}

TEST(GatewayUnknownProto, SctpFailsWhenDropped) {
    auto p = base_profile();
    p.unknown_proto = gateway::UnknownProtocolPolicy::Drop;
    Bed bed(p);
    auto& slot = bed.slot();
    auto& server_ep = bed.tb.server().sctp_open(slot.server_addr, 9899);
    server_ep.listen();
    auto& client_ep = bed.tb.client().sctp_open(slot.client_addr, 9899);
    std::string err;
    client_ep.on_error = [&](const std::string& e) { err = e; };
    client_ep.connect({slot.server_addr, 9899});
    bed.loop.run_for(std::chrono::seconds(30));
    EXPECT_EQ(err, "SCTP association timed out");
}

TEST(GatewayUnknownProto, SctpFailsUntranslatedNoReturnRoute) {
    auto p = base_profile();
    p.unknown_proto = gateway::UnknownProtocolPolicy::Untranslated;
    Bed bed(p);
    auto& slot = bed.slot();
    auto& server_ep = bed.tb.server().sctp_open(slot.server_addr, 9899);
    server_ep.listen();
    auto& client_ep = bed.tb.client().sctp_open(slot.client_addr, 9899);
    std::string err;
    client_ep.on_error = [&](const std::string& e) { err = e; };
    client_ep.connect({slot.server_addr, 9899});
    bed.loop.run_for(std::chrono::seconds(30));
    // The INIT reaches the server with the client's private source, but
    // the server has no route back to 192.168.1.0/24.
    EXPECT_EQ(err, "SCTP association timed out");
}

TEST(GatewayUnknownProto, SctpFailsWhenInboundFirewalled) {
    auto p = base_profile();
    p.unknown_proto_inbound_allowed = false;
    Bed bed(p);
    auto& slot = bed.slot();
    auto& server_ep = bed.tb.server().sctp_open(slot.server_addr, 9899);
    server_ep.listen();
    auto& client_ep = bed.tb.client().sctp_open(slot.client_addr, 9899);
    std::string err;
    client_ep.on_error = [&](const std::string& e) { err = e; };
    client_ep.connect({slot.server_addr, 9899});
    bed.loop.run_for(std::chrono::seconds(30));
    EXPECT_EQ(err, "SCTP association timed out");
}

TEST(GatewayDns, UdpProxyResolves) {
    Bed bed;
    auto& slot = bed.slot();
    stack::DnsClient dns(bed.tb.client());
    std::optional<stack::DnsClient::Result> result;
    // Query the gateway's LAN address (as DHCP advertised).
    dns.query_udp({slot.gw->lan_addr(), 53}, Testbed::kTestName,
                  [&](const stack::DnsClient::Result& r) { result = r; });
    bed.loop.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->ok);
    EXPECT_EQ(result->addr, slot.server_addr);
    EXPECT_EQ(slot.gw->dns_proxy().udp_forwarded(), 1u);
}

TEST(GatewayDns, TcpProxyModes) {
    struct Case {
        gateway::DnsTcpMode mode;
        bool expect_ok;
        std::string expect_err; ///< checked when !expect_ok (empty = any)
    };
    const Case cases[] = {
        {gateway::DnsTcpMode::NoListen, false, "connection refused"},
        {gateway::DnsTcpMode::AcceptOnly, false, "timeout"},
        {gateway::DnsTcpMode::ProxyTcp, true, ""},
        {gateway::DnsTcpMode::ProxyViaUdp, true, ""},
    };
    for (const auto& c : cases) {
        auto p = base_profile();
        p.dns_tcp = c.mode;
        Bed bed(p);
        auto& slot = bed.slot();
        stack::DnsClient dns(bed.tb.client());
        std::optional<stack::DnsClient::Result> result;
        dns.query_tcp({slot.gw->lan_addr(), 53}, slot.client_addr,
                      Testbed::kTestName,
                      [&](const stack::DnsClient::Result& r) { result = r; });
        bed.loop.run_for(std::chrono::seconds(30));
        ASSERT_TRUE(result.has_value()) << "mode " << static_cast<int>(c.mode);
        EXPECT_EQ(result->ok, c.expect_ok)
            << "mode " << static_cast<int>(c.mode) << ": " << result->error;
        if (!c.expect_ok && !c.expect_err.empty()) {
            EXPECT_EQ(result->error, c.expect_err);
        }
        if (c.expect_ok) {
            EXPECT_EQ(result->addr, slot.server_addr);
        }
        // For ProxyViaUdp the upstream query must have arrived over UDP.
        if (c.mode == gateway::DnsTcpMode::ProxyViaUdp && result->ok) {
            EXPECT_GT(bed.tb.dns().udp_queries(), 0u);
        }
        if (c.mode == gateway::DnsTcpMode::ProxyTcp && result->ok) {
            EXPECT_GT(bed.tb.dns().tcp_queries(), 0u);
        }
    }
}

// Regression: routing decisions must come from the ingress parse, never
// from re-reading header bytes after the NAT rewrite (or after a NAT
// drop, when there are no rewritten bytes at all). A TTL-expiring packet
// draws its Time Exceeded in the NIC frame hook before anything rewrites
// it, with or without IP options, and must drop cleanly there; a
// surviving packet on the same flow then translates.
TEST(GatewayNat, TtlExpiringPacketDropsCleanlyOnBothPaths) {
    Bed bed;
    auto& slot = bed.slot();
    int received = 0;
    std::uint8_t seen_ttl = 0;
    auto& server_sock = bed.tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    server_sock.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t>,
            const net::PacketView& pkt) {
            ++received;
            seen_ttl = pkt.ttl();
        });
    auto& sock = bed.tb.client().udp_open(slot.client_addr, 0);

    // TTL exhausts at the gateway: nothing may reach the WAN.
    stack::UdpSocket::SendOptions opts;
    opts.ttl = 1;
    sock.send_to({slot.server_addr, 7000}, {{1}}, opts);
    bed.loop.run();
    EXPECT_EQ(received, 0);

    // With IP options: the same deferral, the same drop.
    opts.ip_options = {0x01, 0x01, 0x01, 0x00}; // NOP NOP NOP EOL
    sock.send_to({slot.server_addr, 7000}, {{2}}, opts);
    bed.loop.run();
    EXPECT_EQ(received, 0);

    // The gateway state must be intact: a surviving packet on the same
    // flow still translates, routes, and decrements to TTL-1.
    opts.ttl = 2;
    sock.send_to({slot.server_addr, 7000}, {{3}}, opts);
    bed.loop.run();
    EXPECT_EQ(received, 1);
    EXPECT_EQ(seen_ttl, 1);
}
