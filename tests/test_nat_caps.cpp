// NatEngine under floods: the UDP/TCP binding caps, the two hard-capped
// side tables (ICMP echo queries, IP-only mappings), what a reboot
// flushes, and distinct external ports for colliding internal flows.
#include <gtest/gtest.h>

#include <set>

#include "gateway/nat_engine.hpp"
#include "net/icmp.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"
#include "testutil.hpp"

using namespace gatekit;
using namespace gatekit::gateway;
using testutil::inbound_copy;
using testutil::outbound_copy;

namespace {

const net::Ipv4Addr kClient(192, 168, 1, 100);
const net::Ipv4Addr kWan(10, 0, 1, 10);
const net::Ipv4Addr kServer(10, 0, 1, 1);

// Both side tables refuse new entries past this many.
constexpr std::size_t kSideTableCap = 1024;

/// LAN host k (k < 200) on the client's subnet.
net::Ipv4Addr lan_host(int k) {
    return net::Ipv4Addr(192, 168, 1, static_cast<std::uint8_t>(2 + k));
}

net::Ipv4Packet udp_packet(net::Ipv4Addr src, std::uint16_t sport,
                           net::Ipv4Addr dst, std::uint16_t dport) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = src;
    pkt.h.dst = dst;
    net::UdpDatagram d;
    d.src_port = sport;
    d.dst_port = dport;
    d.payload = {0xad, 0x5e};
    pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);
    return pkt;
}

net::Ipv4Packet tcp_syn(net::Ipv4Addr src, std::uint16_t sport,
                        net::Ipv4Addr dst, std::uint16_t dport) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kTcp;
    pkt.h.src = src;
    pkt.h.dst = dst;
    net::TcpSegment seg;
    seg.src_port = sport;
    seg.dst_port = dport;
    seg.flags.syn = true;
    pkt.payload = seg.serialize(pkt.h.src, pkt.h.dst);
    return pkt;
}

net::Ipv4Packet echo_request(std::uint16_t id) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kIcmp;
    pkt.h.src = kClient;
    pkt.h.dst = kServer;
    pkt.payload = net::IcmpMessage::make_echo(false, id, 1).serialize();
    return pkt;
}

/// A packet of a protocol no gateway understands, to remote k.
net::Ipv4Packet unknown_proto_packet(int k) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = 99;
    pkt.h.src = kClient;
    pkt.h.dst = net::Ipv4Addr{0x0b000001u + static_cast<std::uint32_t>(k)};
    pkt.payload = {0x00, 0x01, 0x02, 0x03};
    return pkt;
}

std::uint16_t external_udp_port(const net::Bytes& wire) {
    const auto pkt = net::Ipv4Packet::parse(wire);
    return net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst)
        .src_port;
}

struct NatBed {
    sim::EventLoop loop;
    DeviceProfile profile;
    NatEngine nat;
    explicit NatBed(DeviceProfile p = {})
        : profile(std::move(p)), nat(loop, profile) {
        nat.set_wan_addr(kWan);
    }
    void wait(sim::Duration d) { loop.run_until(loop.now() + d); }
};

} // namespace

TEST(NatEngineCaps, EchoQueryTableHoldsAt1024) {
    NatBed bed;
    for (std::uint16_t id = 0; id < kSideTableCap + 100; ++id)
        outbound_copy(bed.nat, echo_request(id));
    EXPECT_EQ(bed.nat.icmp_query_count(), kSideTableCap);
    EXPECT_EQ(bed.nat.stats().dropped_capacity, 100u);
    // A live query still crosses a full table.
    EXPECT_TRUE(outbound_copy(bed.nat, echo_request(7)).has_value());
    // Past the 60 s query timeout the full table prunes itself.
    bed.wait(std::chrono::seconds(61));
    EXPECT_TRUE(outbound_copy(bed.nat, echo_request(0xbeef)).has_value());
    EXPECT_EQ(bed.nat.icmp_query_count(), 1u);
}

TEST(NatEngineCaps, IpOnlyTableHoldsAt1024) {
    DeviceProfile p;
    p.unknown_proto = UnknownProtocolPolicy::TranslateIpOnly;
    NatBed bed(p);
    for (int k = 0; k < static_cast<int>(kSideTableCap) + 100; ++k)
        outbound_copy(bed.nat, unknown_proto_packet(k));
    EXPECT_EQ(bed.nat.ip_only_count(), kSideTableCap);
    EXPECT_EQ(bed.nat.stats().dropped_capacity, 100u);
    EXPECT_TRUE(outbound_copy(bed.nat, unknown_proto_packet(3)).has_value());
    bed.wait(p.unknown_proto_timeout + std::chrono::seconds(1));
    EXPECT_TRUE(
        outbound_copy(bed.nat, unknown_proto_packet(5000)).has_value());
    EXPECT_EQ(bed.nat.ip_only_count(), 1u);
}

TEST(NatEngineCaps, RebootFlushesBothSideTables) {
    DeviceProfile p;
    p.unknown_proto = UnknownProtocolPolicy::TranslateIpOnly;
    NatBed bed(p);
    ASSERT_TRUE(
        outbound_copy(bed.nat, udp_packet(kClient, 4000, kServer, 53)));
    ASSERT_TRUE(outbound_copy(bed.nat, tcp_syn(kClient, 4001, kServer, 80)));
    ASSERT_TRUE(outbound_copy(bed.nat, echo_request(1)));
    ASSERT_TRUE(outbound_copy(bed.nat, unknown_proto_packet(0)));
    ASSERT_EQ(bed.nat.icmp_query_count(), 1u);
    ASSERT_EQ(bed.nat.ip_only_count(), 1u);

    bed.nat.flush(); // the reboot component of a GatewayFault
    EXPECT_EQ(bed.nat.udp_table().size(), 0u);
    EXPECT_EQ(bed.nat.tcp_table().size(), 0u);
    EXPECT_EQ(bed.nat.icmp_query_count(), 0u);
    EXPECT_EQ(bed.nat.ip_only_count(), 0u);
}

TEST(NatEngineCaps, FloodsStopAtTheCapAndAnEstablishedFlowSurvives) {
    DeviceProfile p;
    p.max_tcp_bindings = 32;
    NatBed bed(p);
    const auto victim_out =
        outbound_copy(bed.nat, udp_packet(kClient, 45000, kServer, 7000));
    ASSERT_TRUE(victim_out.has_value());
    const std::uint16_t victim_ext = external_udp_port(*victim_out);

    constexpr int kFlood = 100;
    int udp_refused = 0, tcp_refused = 0;
    for (int k = 0; k < kFlood; ++k) {
        const auto port = static_cast<std::uint16_t>(1024 + k);
        if (!outbound_copy(bed.nat,
                           udp_packet(lan_host(k), port, kServer, 53)))
            ++udp_refused;
        if (!outbound_copy(bed.nat, tcp_syn(lan_host(k), port, kServer, 80)))
            ++tcp_refused;
    }
    EXPECT_EQ(bed.nat.udp_table().size(), 32u);
    EXPECT_EQ(bed.nat.tcp_table().size(), 32u);
    EXPECT_EQ(udp_refused, kFlood - 31); // the victim holds one UDP slot
    EXPECT_EQ(tcp_refused, kFlood - 32);
    EXPECT_EQ(bed.nat.stats().dropped_capacity,
              static_cast<std::uint64_t>(udp_refused + tcp_refused));

    // The victim's binding still translates inbound on a full table.
    bool handled = false;
    const auto in = inbound_copy(bed.nat, 
        udp_packet(kServer, 7000, kWan, victim_ext), handled);
    ASSERT_TRUE(in.has_value());
    EXPECT_TRUE(handled);
    const auto pkt = net::Ipv4Packet::parse(*in);
    EXPECT_EQ(pkt.h.dst, kClient);
    EXPECT_EQ(net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst)
                  .dst_port,
              45000);
}

TEST(NatEngineCaps, CollidingSourcePortsMapToDistinctExternalPorts) {
    for (const auto alloc :
         {PortAllocation::PreserveSourcePort, PortAllocation::Sequential,
          PortAllocation::ReusePooled}) {
        DeviceProfile p;
        p.port_allocation = alloc;
        NatBed bed(p);
        std::set<std::uint16_t> ports;
        constexpr int kHosts = 64;
        for (int h = 0; h < kHosts; ++h) {
            const auto out = outbound_copy(
                bed.nat, udp_packet(lan_host(h), 7777, kServer, 9000));
            ASSERT_TRUE(out.has_value()) << static_cast<int>(alloc);
            ports.insert(external_udp_port(*out));
        }
        EXPECT_EQ(ports.size(), static_cast<std::size_t>(kHosts))
            << static_cast<int>(alloc);
    }
}
