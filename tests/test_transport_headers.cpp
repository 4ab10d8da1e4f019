// UDP, TCP, ICMP wire-format tests.
#include <gtest/gtest.h>

#include "util/assert.hpp"

#include "gateway/nat_engine.hpp"
#include "net/checksum.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"

using namespace gatekit::net;

namespace {
const Ipv4Addr kSrc(192, 168, 1, 2);
const Ipv4Addr kDst(10, 0, 1, 1);
} // namespace

TEST(Udp, RoundTrip) {
    UdpDatagram d;
    d.src_port = 40000;
    d.dst_port = 53;
    d.payload = {'p', 'i', 'n', 'g'};
    const auto bytes = d.serialize(kSrc, kDst);
    EXPECT_EQ(bytes.size(), 12u);
    const auto g = UdpDatagram::parse(bytes, kSrc, kDst);
    EXPECT_EQ(g.src_port, 40000);
    EXPECT_EQ(g.dst_port, 53);
    EXPECT_EQ(g.payload, d.payload);
    EXPECT_TRUE(g.checksum_ok);
}

TEST(Udp, ChecksumDependsOnPseudoHeader) {
    UdpDatagram d;
    d.src_port = 1;
    d.dst_port = 2;
    const auto bytes = d.serialize(kSrc, kDst);
    // Same bytes validated against different addresses must fail: this is
    // what breaks naive NATs that rewrite IPs without fixing UDP sums.
    const auto g = UdpDatagram::parse(bytes, Ipv4Addr(10, 0, 1, 99), kDst);
    EXPECT_FALSE(g.checksum_ok);
}

TEST(Udp, ZeroChecksumMeansUnchecked) {
    UdpDatagram d;
    d.src_port = 7;
    d.dst_port = 8;
    auto bytes = d.serialize(kSrc, kDst);
    bytes[6] = bytes[7] = 0;
    const auto g = UdpDatagram::parse(bytes, Ipv4Addr(1, 2, 3, 4), kDst);
    EXPECT_TRUE(g.checksum_ok);
    EXPECT_EQ(g.stored_checksum, 0);
}

TEST(Udp, BadLengthThrows) {
    UdpDatagram d;
    auto bytes = d.serialize(kSrc, kDst);
    bytes[4] = 0xff;
    bytes[5] = 0xff;
    EXPECT_THROW(UdpDatagram::parse(bytes, kSrc, kDst), ParseError);
}

TEST(Tcp, RoundTripWithFlagsAndPayload) {
    TcpSegment s;
    s.src_port = 5555;
    s.dst_port = 80;
    s.seq = 0xdeadbeef;
    s.ack = 0x01020304;
    s.flags.syn = true;
    s.flags.ack = true;
    s.window = 8192;
    s.payload = {9, 9, 9};
    const auto bytes = s.serialize(kSrc, kDst);
    const auto g = TcpSegment::parse(bytes, kSrc, kDst);
    EXPECT_EQ(g.src_port, 5555);
    EXPECT_EQ(g.dst_port, 80);
    EXPECT_EQ(g.seq, 0xdeadbeefu);
    EXPECT_EQ(g.ack, 0x01020304u);
    EXPECT_TRUE(g.flags.syn);
    EXPECT_TRUE(g.flags.ack);
    EXPECT_FALSE(g.flags.fin);
    EXPECT_EQ(g.window, 8192);
    EXPECT_EQ(g.payload, s.payload);
    EXPECT_TRUE(g.checksum_ok);
    EXPECT_EQ(g.flag_string(), "SYN|ACK");
}

TEST(Tcp, MssOptionRoundTrip) {
    TcpSegment s;
    s.flags.syn = true;
    s.add_mss_option(1460);
    const auto g = TcpSegment::parse(s.serialize(kSrc, kDst), kSrc, kDst);
    ASSERT_TRUE(g.mss_option().has_value());
    EXPECT_EQ(*g.mss_option(), 1460);
    EXPECT_EQ(g.header_len(), 24u);
}

TEST(Tcp, NoMssOptionAbsent) {
    TcpSegment s;
    EXPECT_FALSE(s.mss_option().has_value());
}

TEST(Tcp, ChecksumDetectsCorruption) {
    TcpSegment s;
    s.src_port = 1;
    auto bytes = s.serialize(kSrc, kDst);
    bytes[4] ^= 0x40; // flip a bit in seq
    const auto g = TcpSegment::parse(bytes, kSrc, kDst);
    EXPECT_FALSE(g.checksum_ok);
}

TEST(Tcp, BadDataOffsetThrows) {
    TcpSegment s;
    auto bytes = s.serialize(kSrc, kDst);
    bytes[12] = 0xf0; // data offset 60 > packet size
    EXPECT_THROW(TcpSegment::parse(bytes, kSrc, kDst), ParseError);
}

TEST(Icmp, EchoRoundTrip) {
    const auto m = IcmpMessage::make_echo(false, 0x1111, 7, {1, 2, 3});
    const auto bytes = m.serialize();
    const auto g = IcmpMessage::parse(bytes);
    EXPECT_EQ(g.type, IcmpType::Echo);
    EXPECT_EQ(g.echo_id(), 0x1111);
    EXPECT_EQ(g.echo_seq(), 7);
    EXPECT_EQ(g.payload, (Bytes{1, 2, 3}));
    EXPECT_TRUE(g.checksum_ok);
    EXPECT_FALSE(g.is_error());
}

TEST(Icmp, ErrorQuotesHeaderPlus8Bytes) {
    // Build an original UDP-in-IP datagram with 100 payload bytes.
    Ipv4Packet orig;
    orig.h.protocol = proto::kUdp;
    orig.h.src = kSrc;
    orig.h.dst = kDst;
    UdpDatagram u;
    u.src_port = 1234;
    u.dst_port = 5678;
    u.payload.assign(100, 0xaa);
    orig.payload = u.serialize(kSrc, kDst);
    const auto datagram = orig.serialize();

    const auto err = IcmpMessage::make_error(
        IcmpType::DestUnreachable, icmp_code::kPortUnreachable, 0, datagram);
    EXPECT_EQ(err.payload.size(), 28u); // 20 header + 8
    EXPECT_TRUE(err.is_error());

    // The embedded bytes must carry the original ports.
    const auto g = IcmpMessage::parse(err.serialize());
    const auto inner = gatekit::gateway::IcmpQuote::parse(g.payload);
    ASSERT_TRUE(inner.has_value());
    EXPECT_EQ(inner->src, kSrc);
    EXPECT_EQ(inner->l4.size(), 8u);
    EXPECT_EQ(inner->word(0), 1234);
    EXPECT_EQ(inner->word(2), 5678);
}

TEST(Icmp, FragNeededCarriesMtu) {
    const auto err = IcmpMessage::make_error(
        IcmpType::DestUnreachable, icmp_code::kFragNeeded, 1400, {});
    const auto g = IcmpMessage::parse(err.serialize());
    EXPECT_EQ(g.rest & 0xffff, 1400u);
}

TEST(Icmp, ChecksumDetectsCorruption) {
    auto bytes = IcmpMessage::make_echo(true, 1, 1).serialize();
    bytes[5] ^= 0x01;
    EXPECT_FALSE(IcmpMessage::parse(bytes).checksum_ok);
}

TEST(Icmp, MakeErrorRejectsEchoTypes) {
    EXPECT_THROW(
        IcmpMessage::make_error(IcmpType::Echo, 0, 0, {}),
        gatekit::ContractViolation);
}
