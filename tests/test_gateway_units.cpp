// Direct unit tests of the gateway internals: BindingTable lifecycle and
// port policies, FwdPath service model, and NatEngine translation on raw
// packets (without a testbed around them).
#include <gtest/gtest.h>

#include "gateway/binding_table.hpp"
#include "gateway/fwd_path.hpp"
#include "gateway/nat_engine.hpp"
#include "net/checksum.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"
#include "util/assert.hpp"
#include "testutil.hpp"

using namespace gatekit;
using namespace gatekit::gateway;
using testutil::inbound_copy;
using testutil::outbound_copy;

namespace {

const net::Ipv4Addr kClient(192, 168, 1, 100);
const net::Ipv4Addr kWan(10, 0, 1, 10);
const net::Ipv4Addr kServer(10, 0, 1, 1);

FlowKey flow(std::uint16_t sport, std::uint16_t dport = 7000) {
    return FlowKey{net::proto::kUdp, {kClient, sport}, {kServer, dport}};
}

DeviceProfile quick_profile() {
    DeviceProfile p;
    p.tag = "unit";
    p.udp.initial = std::chrono::seconds(30);
    p.udp.inbound_refresh = std::chrono::seconds(60);
    p.udp.outbound_refresh = std::chrono::seconds(90);
    return p;
}

net::Ipv4Packet udp_packet(std::uint16_t sport, std::uint16_t dport,
                           net::Bytes payload = {1}) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = kClient;
    pkt.h.dst = kServer;
    net::UdpDatagram d;
    d.src_port = sport;
    d.dst_port = dport;
    d.payload = std::move(payload);
    pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);
    return pkt;
}

/// The ones-complement residual of a UDP/TCP datagram's transport
/// checksum over its pseudo-header: 0 when the checksum is right, and
/// otherwise the error it carries.
std::uint16_t l4_residual(const net::Bytes& datagram) {
    const auto pkt = net::Ipv4Packet::parse(datagram);
    net::ChecksumAccumulator acc;
    net::add_pseudo_header(acc, pkt.h.src, pkt.h.dst, pkt.h.protocol,
                           static_cast<std::uint16_t>(pkt.payload.size()));
    acc.add_bytes(pkt.payload);
    return acc.finalize();
}

net::Ipv4Packet tcp_packet(std::uint16_t sport, std::uint16_t dport,
                           bool syn) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kTcp;
    pkt.h.src = kClient;
    pkt.h.dst = kServer;
    net::TcpSegment seg;
    seg.src_port = sport;
    seg.dst_port = dport;
    seg.flags.syn = syn;
    seg.flags.ack = !syn;
    seg.payload = {'d'};
    pkt.payload = seg.serialize(pkt.h.src, pkt.h.dst);
    return pkt;
}

/// A server reply toward the external endpoint `outbound` was given.
net::Ipv4Packet reply_to(const net::Bytes& outbound, net::Bytes payload) {
    const auto out = net::Ipv4Packet::parse(outbound);
    net::Ipv4Packet reply;
    reply.h.protocol = net::proto::kUdp;
    reply.h.src = out.h.dst;
    reply.h.dst = out.h.src;
    net::UdpDatagram d;
    d.src_port = static_cast<std::uint16_t>((out.payload[2] << 8) |
                                            out.payload[3]);
    d.dst_port = static_cast<std::uint16_t>((out.payload[0] << 8) |
                                            out.payload[1]);
    d.payload = std::move(payload);
    reply.payload = d.serialize(reply.h.src, reply.h.dst);
    return reply;
}

} // namespace

TEST(BindingTable, CreateFindExpire) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    BindingTable table(loop, profile, net::proto::kUdp);

    Binding* b = table.find_or_create_outbound(flow(40000));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->external_port, 40000); // preserved
    EXPECT_EQ(table.size(), 1u);
    EXPECT_NE(table.find_inbound(40000, {kServer, 7000}), nullptr);
    // Wrong remote endpoint: endpoint-dependent filtering rejects.
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7001}), nullptr);

    loop.run_until(loop.now() + std::chrono::seconds(31));
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7000}), nullptr);
    EXPECT_EQ(table.size(), 0u);
}

TEST(BindingTable, RefreshExtendsLifetime) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    BindingTable table(loop, profile, net::proto::kUdp);
    Binding* b = table.find_or_create_outbound(flow(40000));
    loop.run_until(loop.now() + std::chrono::seconds(25));
    table.refresh(*b, std::chrono::seconds(60));
    loop.run_until(loop.now() + std::chrono::seconds(50));
    EXPECT_NE(table.find_inbound(40000, {kServer, 7000}), nullptr);
    loop.run_until(loop.now() + std::chrono::seconds(11));
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7000}), nullptr);
}

TEST(BindingTable, SameInternalEndpointSharesExternalPort) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    BindingTable table(loop, profile, net::proto::kUdp);
    Binding* b1 = table.find_or_create_outbound(flow(40000, 7000));
    Binding* b2 = table.find_or_create_outbound(flow(40000, 7001));
    ASSERT_NE(b1, nullptr);
    ASSERT_NE(b2, nullptr);
    // RFC 4787 endpoint-independent mapping.
    EXPECT_EQ(b1->external_port, 40000);
    EXPECT_EQ(b2->external_port, 40000);
    // Inbound demux still separates the flows by remote endpoint.
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7000})->key.remote.port,
              7000);
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7001})->key.remote.port,
              7001);
}

TEST(BindingTable, DifferentInternalEndpointGetsPoolPort) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    BindingTable table(loop, profile, net::proto::kUdp);
    Binding* b1 = table.find_or_create_outbound(flow(40000));
    FlowKey other{net::proto::kUdp,
                  {net::Ipv4Addr(192, 168, 1, 101), 40000},
                  {kServer, 7000}};
    Binding* b2 = table.find_or_create_outbound(other);
    ASSERT_NE(b2, nullptr);
    EXPECT_EQ(b1->external_port, 40000);
    EXPECT_EQ(b2->external_port, profile.pool_begin);
}

TEST(BindingTable, QuarantineForcesFreshPort) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    profile.port_quarantine = std::chrono::minutes(2);
    BindingTable table(loop, profile, net::proto::kUdp);
    Binding* b1 = table.find_or_create_outbound(flow(40000));
    EXPECT_EQ(b1->external_port, 40000);
    loop.run_until(loop.now() + std::chrono::seconds(31)); // expire
    // Recreate within the quarantine window: a new port.
    Binding* b2 = table.find_or_create_outbound(flow(40000));
    ASSERT_NE(b2, nullptr);
    EXPECT_EQ(b2->external_port, profile.pool_begin);
    // After quarantine it preserves again.
    loop.run_until(loop.now() + std::chrono::minutes(3));
    Binding* b3 = table.find_or_create_outbound(flow(40001));
    EXPECT_EQ(b3->external_port, 40001);
}

TEST(BindingTable, CapacityLimitAndRemove) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    profile.max_tcp_bindings = 2;
    BindingTable table(loop, profile, net::proto::kUdp);
    EXPECT_NE(table.find_or_create_outbound(flow(40000)), nullptr);
    EXPECT_NE(table.find_or_create_outbound(flow(40001)), nullptr);
    EXPECT_EQ(table.find_or_create_outbound(flow(40002)), nullptr);
    table.remove(flow(40000));
    EXPECT_NE(table.find_or_create_outbound(flow(40002)), nullptr);
}

TEST(BindingTable, SequentialPoolWrapsAndExhausts) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    profile.port_allocation = PortAllocation::Sequential;
    profile.pool_begin = 20000;
    profile.pool_end = 20002; // three ports
    profile.max_tcp_bindings = 10;
    BindingTable table(loop, profile, net::proto::kUdp);
    EXPECT_EQ(table.find_or_create_outbound(flow(1))->external_port, 20000);
    EXPECT_EQ(table.find_or_create_outbound(flow(2))->external_port, 20001);
    EXPECT_EQ(table.find_or_create_outbound(flow(3))->external_port, 20002);
    EXPECT_EQ(table.find_or_create_outbound(flow(4)), nullptr); // exhausted
}

TEST(FwdPath, ServiceRateIsExact) {
    sim::EventLoop loop;
    ForwardingModel m;
    m.up_mbps = 20;
    m.down_mbps = 50;
    m.aggregate_mbps = 60;
    m.buffer_up_bytes = 1'000'000;
    m.processing_delay = sim::Duration::zero();
    FwdPath fwd(loop, m);
    int delivered = 0;
    sim::TimePoint last{};
    for (int i = 0; i < 100; ++i)
        fwd.submit(Direction::Up, 1500, [&] {
            ++delivered;
            last = loop.now();
        });
    loop.run();
    EXPECT_EQ(delivered, 100);
    EXPECT_NEAR(100 * 1500 * 8 / sim::to_sec(last) / 1e6, 20.0, 0.5);
}

TEST(FwdPath, DropTailHonorsBufferBytes) {
    sim::EventLoop loop;
    ForwardingModel m;
    m.buffer_up_bytes = 4500; // three 1500-byte packets
    FwdPath fwd(loop, m);
    int delivered = 0;
    int accepted = 0;
    for (int i = 0; i < 10; ++i)
        accepted += fwd.submit(Direction::Up, 1500, [&] { ++delivered; });
    loop.run();
    // One in service immediately plus three queued.
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(delivered, 4);
    EXPECT_EQ(fwd.drops(Direction::Up), 6u);
}

TEST(FwdPath, AggregateSharedAcrossDirections) {
    sim::EventLoop loop;
    ForwardingModel m;
    m.up_mbps = m.down_mbps = 100;
    m.aggregate_mbps = 100; // the CPU is the bottleneck
    m.buffer_up_bytes = m.buffer_down_bytes = 1'000'000;
    m.processing_delay = sim::Duration::zero();
    FwdPath fwd(loop, m);
    int up = 0, down = 0;
    sim::TimePoint last{};
    for (int i = 0; i < 100; ++i) {
        fwd.submit(Direction::Up, 1500, [&] { ++up; last = loop.now(); });
        fwd.submit(Direction::Down, 1500, [&] { ++down; last = loop.now(); });
    }
    loop.run();
    EXPECT_EQ(up + down, 200);
    const double mbps = 200 * 1500 * 8 / sim::to_sec(last) / 1e6;
    EXPECT_NEAR(mbps, 100.0, 2.0); // combined == aggregate
    EXPECT_NEAR(up, down, 2);      // round-robin fairness
}

TEST(FwdPath, ForwardingTickQuantizesDelivery) {
    sim::EventLoop loop;
    ForwardingModel m;
    m.processing_delay = sim::Duration::zero();
    m.forwarding_tick = std::chrono::milliseconds(10);
    FwdPath fwd(loop, m);
    std::vector<sim::TimePoint> at;
    fwd.submit(Direction::Up, 1500, [&] { at.push_back(loop.now()); });
    loop.run();
    ASSERT_EQ(at.size(), 1u);
    EXPECT_EQ(at[0].count() % std::chrono::milliseconds(10).count(), 0);
}

TEST(NatEngine, UdpOutboundTranslatesAndFixesChecksums) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    const auto out = outbound_copy(nat, udp_packet(40000, 7000, {'h', 'i'}));
    ASSERT_TRUE(out.has_value());
    const auto pkt = net::Ipv4Packet::parse(*out);
    EXPECT_EQ(pkt.h.src, kWan);
    EXPECT_EQ(pkt.h.dst, kServer);
    EXPECT_TRUE(pkt.h.checksum_ok);
    EXPECT_EQ(pkt.h.ttl, 63); // decremented
    const auto d = net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst);
    EXPECT_EQ(d.src_port, 40000);
    EXPECT_TRUE(d.checksum_ok); // rewritten for the new pseudo-header
    EXPECT_EQ(d.payload, (net::Bytes{'h', 'i'}));
}

TEST(NatEngine, RoundTripIsInvertible) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    const auto out = outbound_copy(nat, udp_packet(40000, 7000, {'q'}));
    ASSERT_TRUE(out.has_value());

    // Fabricate the server's reply to the translated packet.
    net::Ipv4Packet reply;
    reply.h.protocol = net::proto::kUdp;
    reply.h.src = kServer;
    reply.h.dst = kWan;
    net::UdpDatagram rd;
    rd.src_port = 7000;
    rd.dst_port = 40000;
    rd.payload = {'r'};
    reply.payload = rd.serialize(reply.h.src, reply.h.dst);

    bool handled = false;
    const auto in = inbound_copy(nat, reply, handled);
    EXPECT_TRUE(handled);
    ASSERT_TRUE(in.has_value());
    const auto pkt = net::Ipv4Packet::parse(*in);
    EXPECT_EQ(pkt.h.dst, kClient);
    const auto d = net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst);
    EXPECT_EQ(d.dst_port, 40000);
    EXPECT_TRUE(d.checksum_ok);
}

TEST(NatEngine, InboundWithoutBindingIsNotHandled) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    net::Ipv4Packet stray;
    stray.h.protocol = net::proto::kUdp;
    stray.h.src = kServer;
    stray.h.dst = kWan;
    net::UdpDatagram d;
    d.src_port = 9999;
    d.dst_port = 68; // the gateway's own DHCP client port
    stray.payload = d.serialize(stray.h.src, stray.h.dst);
    bool handled = true;
    const auto in = inbound_copy(nat, stray, handled);
    EXPECT_FALSE(handled); // falls through to the gateway's own stack
    EXPECT_FALSE(in.has_value());
}

TEST(NatEngine, TtlExhaustionDrops) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);
    auto pkt = udp_packet(40000, 7000);
    pkt.h.ttl = 1;
    EXPECT_FALSE(outbound_copy(nat, pkt).has_value());
}

TEST(NatEngine, TcpRstRemovesBindingImmediately) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    net::Ipv4Packet syn;
    syn.h.protocol = net::proto::kTcp;
    syn.h.src = kClient;
    syn.h.dst = kServer;
    net::TcpSegment seg;
    seg.src_port = 41000;
    seg.dst_port = 80;
    seg.flags.syn = true;
    syn.payload = seg.serialize(syn.h.src, syn.h.dst);
    ASSERT_TRUE(outbound_copy(nat, syn).has_value());
    EXPECT_EQ(nat.tcp_table().size(), 1u);

    seg.flags = {};
    seg.flags.rst = true;
    syn.payload = seg.serialize(syn.h.src, syn.h.dst);
    ASSERT_TRUE(outbound_copy(nat, syn).has_value());
    EXPECT_EQ(nat.tcp_table().size(), 0u);
}

TEST(NatEngine, HairpinRequiresKnobAndBinding) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    profile.hairpin = true;
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    // No binding yet: nothing to hairpin to.
    net::Ipv4Packet probe;
    probe.h.protocol = net::proto::kUdp;
    probe.h.src = kClient;
    probe.h.dst = kWan;
    net::UdpDatagram d;
    d.src_port = 40001;
    d.dst_port = 40000;
    probe.payload = d.serialize(probe.h.src, probe.h.dst);
    const net::Bytes sent = probe.serialize();
    net::Bytes bytes = sent;
    auto v = net::PacketView::of(bytes);
    EXPECT_FALSE(nat.hairpin(v));
    EXPECT_EQ(bytes, sent); // a refusal leaves the datagram untouched

    // Create the target binding, then hairpin succeeds.
    ASSERT_TRUE(outbound_copy(nat, udp_packet(40000, 7000)).has_value());
    ASSERT_TRUE(nat.hairpin(v));
    const auto pkt = net::Ipv4Packet::parse(bytes);
    EXPECT_EQ(pkt.h.src, kWan);
    EXPECT_EQ(pkt.h.dst, kClient);
}

TEST(NatEngine, UnconfiguredEngineViolatesContract) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    EXPECT_THROW(outbound_copy(nat, udp_packet(1, 2)),
                 gatekit::ContractViolation);
}

// --- The cases the in-place translator defines ------------------------------

TEST(NatEngine, FragmentsAreAnOutboundDropAndNotOursInbound) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    auto first = udp_packet(40000, 7000);
    first.h.more_fragments = true;
    EXPECT_FALSE(outbound_copy(nat, first).has_value());
    auto later = udp_packet(40000, 7000);
    later.h.frag_offset = 185;
    EXPECT_FALSE(outbound_copy(nat, later).has_value());
    EXPECT_EQ(nat.stats().dropped_malformed, 2u);
    EXPECT_EQ(nat.udp_table().size(), 0u); // no state for a drop

    const auto out = outbound_copy(nat, udp_packet(40000, 7000));
    ASSERT_TRUE(out.has_value());
    auto frag = reply_to(*out, {'r'});
    frag.h.more_fragments = true;
    bool handled = true;
    EXPECT_FALSE(inbound_copy(nat, frag, handled).has_value());
    EXPECT_FALSE(handled); // the gateway's own stack gets it
}

TEST(NatEngine, UnsoundTransportGeometryIsACountedDrop) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    // UDP length one short of the IP payload (a trailing byte).
    auto udp = udp_packet(40000, 7000, {1, 2, 3});
    udp.payload[5] = static_cast<std::uint8_t>(udp.payload[5] - 1);
    EXPECT_FALSE(outbound_copy(nat, udp).has_value());
    // TCP data offset of 60 bytes over a 21-byte segment.
    auto tcp = tcp_packet(41000, 80, true);
    tcp.payload[12] = 0xf0;
    EXPECT_FALSE(outbound_copy(nat, tcp).has_value());

    EXPECT_EQ(nat.stats().dropped_malformed, 2u);
    EXPECT_EQ(nat.udp_table().size() + nat.tcp_table().size(), 0u);
}

TEST(NatEngine, ChecksumlessUdpStaysChecksumless) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    auto pkt = udp_packet(40000, 7000, {'z'});
    pkt.payload[6] = pkt.payload[7] = 0; // sender disabled the checksum
    const auto out = outbound_copy(nat, pkt);
    ASSERT_TRUE(out.has_value());
    const auto wire = net::Ipv4Packet::parse(*out);
    EXPECT_EQ(wire.payload[6], 0);
    EXPECT_EQ(wire.payload[7], 0);

    auto reply = reply_to(*out, {'y'});
    reply.payload[6] = reply.payload[7] = 0;
    bool handled = false;
    const auto in = inbound_copy(nat, reply, handled);
    ASSERT_TRUE(in.has_value());
    const auto lan = net::Ipv4Packet::parse(*in);
    EXPECT_EQ(lan.h.dst, kClient);
    EXPECT_EQ(lan.payload[6], 0);
    EXPECT_EQ(lan.payload[7], 0);
}

TEST(NatEngine, WrongTcpChecksumKeepsItsError) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    auto pkt = tcp_packet(41000, 80, true);
    pkt.payload[16] ^= 0x5a; // damaged in flight
    const auto in_error = l4_residual(pkt.serialize());
    ASSERT_NE(in_error, 0);
    const auto out = outbound_copy(nat, pkt);
    ASSERT_TRUE(out.has_value()); // forwarded, not repaired
    EXPECT_EQ(net::Ipv4Packet::parse(*out).h.src, kWan);
    EXPECT_EQ(l4_residual(*out), in_error);
}

TEST(NatEngine, RecordRouteIsStampedInPlace) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    profile.honor_record_route = true;
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    auto pkt = udp_packet(40000, 7000, {'r'});
    pkt.h.options = net::Ipv4Packet::make_record_route_option(2);
    const auto out = outbound_copy(nat, pkt);
    ASSERT_TRUE(out.has_value());
    const auto wire = net::Ipv4Packet::parse(*out);
    EXPECT_TRUE(wire.h.checksum_ok);
    EXPECT_EQ(wire.recorded_route(), std::vector<net::Ipv4Addr>{kWan});
    EXPECT_EQ(l4_residual(*out), 0);

    // A full route is left as it came; the header stays valid.
    pkt.h.options = wire.h.options;
    pkt.h.options[2] = static_cast<std::uint8_t>(pkt.h.options[1] + 1);
    const auto full = outbound_copy(nat, pkt);
    ASSERT_TRUE(full.has_value());
    const auto again = net::Ipv4Packet::parse(*full);
    EXPECT_TRUE(again.h.checksum_ok);
    EXPECT_EQ(again.h.options, pkt.h.options);
}
