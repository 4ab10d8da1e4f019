// NatEngine's ICMP and other transports: which errors about echo flows
// the NAT claims, and the cases the in-place translator defines (header
// checksums it leaves alone, the ICMP checksum it recomputes, the Time
// Exceeded quote, truncated ICMP, ls2's RST), over the packet API, the
// in-place API and the wire.
#include <gtest/gtest.h>

#include <algorithm>

#include "devices/profiles.hpp"
#include "gateway/nat_engine.hpp"
#include "harness/testbed.hpp"
#include "net/checksum.hpp"
#include "net/dccp.hpp"
#include "net/icmp.hpp"
#include "net/sctp.hpp"
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

net::Ipv4Packet icmp_packet(net::Ipv4Addr src, net::Ipv4Addr dst,
                            const net::IcmpMessage& msg) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kIcmp;
    pkt.h.src = src;
    pkt.h.dst = dst;
    pkt.h.ttl = 64;
    pkt.payload = msg.serialize();
    return pkt;
}

net::Ipv4Packet echo_request(net::Ipv4Addr src, net::Ipv4Addr dst,
                             std::uint16_t id) {
    return icmp_packet(src, dst, net::IcmpMessage::make_echo(false, id, 1));
}

/// A Host Unreachable from `from` to `to` about `original`, quoting its
/// header and first `transport_bytes` bytes after it.
net::Ipv4Packet host_unreachable(net::Ipv4Addr from, net::Ipv4Addr to,
                                 const net::Ipv4Packet& original,
                                 std::size_t transport_bytes = 8) {
    auto msg = net::IcmpMessage::make_error(net::IcmpType::DestUnreachable,
                                            net::icmp_code::kHostUnreachable,
                                            0, original.serialize());
    msg.payload.resize(original.h.header_len() + transport_bytes);
    return icmp_packet(from, to, msg);
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

// Regression: the error path never read a query's expiry, so an error
// naming an echo query that had timed out was still relayed inside.
TEST(NatEngineIcmp, ErrorAboutAnExpiredEchoQueryIsNotOurs) {
    NatBed bed;
    ASSERT_TRUE(
        outbound_copy(bed.nat, echo_request(kClient, kServer, 0x4242)));
    const auto err = host_unreachable(kServer, kWan,
                                      echo_request(kWan, kServer, 0x4242));
    bool handled = false;
    EXPECT_TRUE(inbound_copy(bed.nat, err, handled).has_value());
    EXPECT_TRUE(handled);

    bed.wait(std::chrono::seconds(61)); // the 60 s query timeout
    handled = true;
    EXPECT_FALSE(inbound_copy(bed.nat, err, handled).has_value());
    EXPECT_FALSE(handled);
    EXPECT_EQ(bed.nat.stats().icmp_translated, 1u);
}

// Regression: an error about an echo flow that matched no query, or
// whose quote stopped short of the echo id, was claimed and swallowed,
// so it never reached the gateway's own stack.
TEST(NatEngineIcmp, ErrorAboutNoLiveEchoQueryIsNotOurs) {
    NatBed bed;
    bool handled = true;
    EXPECT_FALSE(inbound_copy(bed.nat, host_unreachable(
                                  kServer, kWan,
                                  echo_request(kWan, kServer, 0x1111)),
                              handled)
                     .has_value());
    EXPECT_FALSE(handled);

    ASSERT_TRUE(
        outbound_copy(bed.nat, echo_request(kClient, kServer, 0x1111)));
    handled = true;
    EXPECT_FALSE(inbound_copy(bed.nat, host_unreachable(
                                  kServer, kWan,
                                  echo_request(kWan, kServer, 0x1111), 4),
                              handled)
                     .has_value());
    EXPECT_FALSE(handled);
    EXPECT_EQ(bed.nat.stats().icmp_translated, 0u);
    EXPECT_EQ(bed.nat.stats().icmp_dropped, 0u);
}

// A device that never translates errors about echo flows still claims
// and counts every one, matching query or not.
TEST(NatEngineIcmp, UntranslatedQueryErrorsStayACountedDrop) {
    DeviceProfile p;
    p.icmp_query_errors_translated = false;
    NatBed bed(p);
    bool handled = false;
    EXPECT_FALSE(inbound_copy(bed.nat, host_unreachable(
                                  kServer, kWan,
                                  echo_request(kWan, kServer, 0x2222)),
                              handled)
                     .has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.nat.stats().icmp_dropped, 1u);
}

// End to end: an error about the gateway's own ping reaches its stack.
TEST(NatEngineIcmp, GatewayOwnPingHearsItsErrors) {
    sim::EventLoop loop;
    harness::Testbed tb(loop);
    const auto& profiles = devices::all_profiles();
    const auto it = std::find_if(profiles.begin(), profiles.end(),
                                 [](const DeviceProfile& p) {
                                     return p.icmp_query_errors_translated;
                                 });
    ASSERT_NE(it, profiles.end());
    const int idx = tb.add_device(*it);
    tb.start_and_wait();
    auto& s = tb.slot(idx);
    int heard = 0;
    s.gw->host().set_icmp_observer(
        [&](const net::PacketView&, const net::IcmpMessage& m) {
            if (m.type == net::IcmpType::DestUnreachable) ++heard;
        });
    const auto err = host_unreachable(
        s.server_addr, s.gw_wan_addr,
        echo_request(s.gw_wan_addr, s.server_addr, 0x3333));
    tb.server().send_raw(*s.server_if, err.serialize(), s.gw_wan_addr);
    loop.run_until(loop.now() + std::chrono::seconds(1));
    EXPECT_EQ(heard, 1);
}

// --- The cases the in-place translator defines ------------------------------

namespace {

/// A datagram's IP header checksum error: 0 when it is right.
std::uint16_t ip_residual(std::span<const std::uint8_t> datagram) {
    return net::internet_checksum(
        datagram.first(static_cast<std::size_t>(datagram[0] & 0xf) * 4));
}

/// An ICMP message's checksum error over its whole length.
std::uint16_t icmp_residual(std::span<const std::uint8_t> datagram) {
    const std::size_t ihl = static_cast<std::size_t>(datagram[0] & 0xf) * 4;
    return net::internet_checksum(datagram.subspan(ihl));
}

net::Ipv4Packet raw_packet(std::uint8_t proto, net::Ipv4Addr src,
                           net::Ipv4Addr dst, net::Bytes payload) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = proto;
    pkt.h.src = src;
    pkt.h.dst = dst;
    pkt.payload = std::move(payload);
    return pkt;
}

/// Run the in-place translator on `datagram` (damaged by the caller as
/// needed) and return the verdict; the bytes change in place.
NatEngine::Verdict translate(NatEngine& nat, net::Bytes& datagram,
                             bool outbound) {
    auto v = net::PacketView::of(datagram);
    const auto verdict = outbound ? nat.outbound(v) : nat.inbound(v);
    datagram.resize(v.total_len());
    return verdict;
}

} // namespace

// The parse/reserialize translator recomputed the IP header checksum of
// every ICMP, SCTP and DCCP datagram, repairing a damaged one. In place,
// the incremental update keeps the error, as it always has for UDP/TCP.
TEST(NatEngineIcmp, WrongIpChecksumOnIcmpSctpDccpStaysWrong) {
    DeviceProfile p;
    p.unknown_proto = UnknownProtocolPolicy::TranslateIpOnly;
    NatBed bed(p);
    net::SctpPacket sctp;
    sctp.src_port = 5000;
    sctp.dst_port = 5001;
    sctp.chunks.push_back({net::SctpChunkType::Init, 0, {1, 2, 3, 4}});
    net::DccpPacket dccp;
    dccp.src_port = 6000;
    dccp.dst_port = 6001;
    dccp.service_code = 7;
    for (auto pkt :
         {echo_request(kClient, kServer, 0x0101),
          raw_packet(net::proto::kSctp, kClient, kServer, sctp.serialize()),
          raw_packet(net::proto::kDccp, kClient, kServer,
                     dccp.serialize(kClient, kServer))}) {
        auto bytes = pkt.serialize();
        bytes[10] ^= 0x5a; // damaged in flight
        const auto error = ip_residual(bytes);
        ASSERT_NE(error, 0);
        ASSERT_EQ(translate(bed.nat, bytes, true),
                  NatEngine::Verdict::kForwarded);
        EXPECT_EQ(net::ipv4_src(bytes), kWan);
        EXPECT_EQ(ip_residual(bytes), error) << int{pkt.h.protocol};
    }
    // Coming back, the echo reply and the SCTP answer keep theirs too.
    for (auto pkt :
         {icmp_packet(kServer, kWan,
                      net::IcmpMessage::make_echo(true, 0x0101, 1)),
          raw_packet(net::proto::kSctp, kServer, kWan, sctp.serialize())}) {
        auto bytes = pkt.serialize();
        bytes[11] ^= 0x33;
        const auto error = ip_residual(bytes);
        ASSERT_EQ(translate(bed.nat, bytes, false),
                  NatEngine::Verdict::kForwarded);
        EXPECT_EQ(net::ipv4_dst(bytes), kClient);
        EXPECT_EQ(ip_residual(bytes), error) << int{pkt.h.protocol};
    }
}

// A relayed error carries a quote the NAT rewrote, so its ICMP checksum
// is computed afresh (a wrong one arriving is not passed on); echo and
// every other query keep the checksum they came with, right or wrong.
TEST(NatEngineIcmp, RelayedErrorsGetAFreshIcmpChecksumQueriesKeepTheirs) {
    NatBed bed;
    auto echo = echo_request(kClient, kServer, 0x0202).serialize();
    echo[20 + 2] ^= 0x11; // the ICMP checksum
    const auto echo_error = icmp_residual(echo);
    ASSERT_EQ(translate(bed.nat, echo, true), NatEngine::Verdict::kForwarded);
    EXPECT_EQ(icmp_residual(echo), echo_error);

    net::IcmpMessage timestamp;
    timestamp.type = static_cast<net::IcmpType>(13);
    auto ts = icmp_packet(kClient, kServer, timestamp).serialize();
    ASSERT_EQ(translate(bed.nat, ts, true), NatEngine::Verdict::kForwarded);
    EXPECT_EQ(icmp_residual(ts), 0);

    auto reply = icmp_packet(kServer, kWan,
                             net::IcmpMessage::make_echo(true, 0x0202, 1))
                     .serialize();
    reply[20 + 3] ^= 0x22;
    const auto reply_error = icmp_residual(reply);
    ASSERT_EQ(translate(bed.nat, reply, false),
              NatEngine::Verdict::kForwarded);
    EXPECT_EQ(icmp_residual(reply), reply_error);

    auto err = host_unreachable(kServer, kWan,
                                echo_request(kWan, kServer, 0x0202))
                   .serialize();
    err[20 + 2] ^= 0x44;
    ASSERT_NE(icmp_residual(err), 0);
    ASSERT_EQ(translate(bed.nat, err, false), NatEngine::Verdict::kForwarded);
    EXPECT_EQ(net::ipv4_dst(err), kClient);
    EXPECT_EQ(icmp_residual(err), 0);
}

// Going out, ICMP shorter than its 8-byte header is a counted malformed
// drop; coming in it is not the NAT's.
TEST(NatEngineIcmp, TruncatedIcmpIsAMalformedDropOutAndNotOursIn) {
    NatBed bed;
    EXPECT_FALSE(outbound_copy(bed.nat, raw_packet(net::proto::kIcmp, kClient,
                                             kServer, {8, 0, 0, 0})));
    EXPECT_EQ(bed.nat.stats().dropped_malformed, 1u);
    EXPECT_EQ(bed.nat.icmp_query_count(), 0u);
    bool handled = true;
    EXPECT_FALSE(inbound_copy(bed.nat,
                              raw_packet(net::proto::kIcmp, kServer, kWan,
                                         {0, 0, 0, 0, 0, 0, 0}),
                              handled));
    EXPECT_FALSE(handled);
}

// ls2's quirk: an error about a TCP flow comes out as a 40-byte bogus
// RST toward the internal endpoint, written over the error.
TEST(NatEngineIcmp, Ls2RstReplacesTheErrorInPlace) {
    DeviceProfile p;
    p.icmp_tcp = IcmpTranslationSet::all();
    p.tcp_icmp_becomes_rst = true;
    NatBed bed(p);
    net::TcpSegment syn;
    syn.src_port = 41000;
    syn.dst_port = 80;
    syn.flags.syn = true;
    const auto out = outbound_copy(bed.nat, raw_packet(
        net::proto::kTcp, kClient, kServer, syn.serialize(kClient, kServer)));
    ASSERT_TRUE(out);
    auto err =
        host_unreachable(kServer, kWan, net::Ipv4Packet::parse(*out)).serialize();
    ASSERT_EQ(translate(bed.nat, err, false), NatEngine::Verdict::kForwarded);
    ASSERT_EQ(err.size(), 40u);
    const auto rst = net::Ipv4Packet::parse(err);
    EXPECT_TRUE(rst.h.checksum_ok);
    EXPECT_EQ(rst.h.src, kServer);
    EXPECT_EQ(rst.h.dst, kClient);
    const auto seg = net::TcpSegment::parse(rst.payload, rst.h.src, rst.h.dst);
    EXPECT_TRUE(seg.flags.rst);
    EXPECT_EQ(seg.src_port, 80);
    EXPECT_EQ(seg.dst_port, 41000);
    EXPECT_TRUE(seg.checksum_ok);
}

// Over the wire, a Time Exceeded quotes the datagram exactly as it
// arrived at the gateway, a damaged header checksum included (the old
// packet path quoted a reserialized, repaired copy), in both directions.
TEST(NatEngineIcmp, TimeExceededQuotesTheDatagramAsItArrived) {
    sim::EventLoop loop;
    harness::Testbed tb(loop);
    const int idx = tb.add_device(devices::all_profiles().front());
    tb.start_and_wait();
    auto& s = tb.slot(idx);
    std::vector<net::Bytes> quotes;
    const auto collect = [&](const net::PacketView&,
                             const net::IcmpMessage& m) {
        if (m.type == net::IcmpType::TimeExceeded) quotes.push_back(m.payload);
    };
    tb.client().set_icmp_observer(collect);
    tb.server().set_icmp_observer(collect);

    net::UdpDatagram d;
    d.src_port = 40000;
    d.dst_port = 7000;
    d.payload = {1, 2, 3};
    auto up = raw_packet(net::proto::kUdp, s.client_addr, s.server_addr,
                         d.serialize(s.client_addr, s.server_addr));
    up.h.ttl = 1;
    up.h.options = net::Ipv4Packet::make_record_route_option(1);
    auto up_bytes = up.serialize();
    up_bytes[10] ^= 0x5a;
    tb.client().send_raw(*s.client_if, up_bytes, s.gw->lan_addr());
    loop.run_until(loop.now() + std::chrono::seconds(1));
    ASSERT_EQ(quotes.size(), 1u);
    EXPECT_EQ(quotes[0], net::Bytes(up_bytes.begin(),
                                    up_bytes.begin() + up.h.header_len() + 8));

    // Open the flow, then expire a reply on its way in.
    up.h.ttl = 64;
    up.h.options.clear();
    tb.client().send_raw(*s.client_if, up.serialize(), s.gw->lan_addr());
    loop.run_until(loop.now() + std::chrono::seconds(1));
    const auto ext = tb.slot(idx).gw->nat().udp_table().find_outbound(
        FlowKey{net::proto::kUdp, {s.client_addr, 40000}, {s.server_addr, 7000}});
    ASSERT_NE(ext, nullptr);
    net::UdpDatagram r;
    r.src_port = 7000;
    r.dst_port = ext->external_port;
    r.payload = {4, 5};
    auto down = raw_packet(net::proto::kUdp, s.server_addr, s.gw_wan_addr,
                           r.serialize(s.server_addr, s.gw_wan_addr));
    down.h.ttl = 1;
    auto down_bytes = down.serialize();
    down_bytes[11] ^= 0x5a;
    tb.server().send_raw(*s.server_if, down_bytes, s.gw_wan_addr);
    loop.run_until(loop.now() + std::chrono::seconds(1));
    ASSERT_EQ(quotes.size(), 2u);
    EXPECT_EQ(quotes[1], net::Bytes(down_bytes.begin(),
                                    down_bytes.begin() + 28));
}
