// Parameterized property tests: invariants swept over parameter ranges.
#include <gtest/gtest.h>

#include <random>

#include "gateway/nat_engine.hpp"
#include "harness/testrund.hpp"
#include "net/checksum.hpp"
#include "net/tcp_header.hpp"
#include "net/dccp.hpp"
#include "net/dns.hpp"
#include "net/icmp.hpp"
#include "net/sctp.hpp"
#include "net/udp.hpp"
#include "util/stats.hpp"
#include "testutil.hpp"

using namespace gatekit;
using namespace gatekit::harness;
using testutil::inbound_copy;
using testutil::outbound_copy;

// --- property: the timeout probe recovers any configured timeout ------------

class TimeoutRecovery : public ::testing::TestWithParam<int> {};

TEST_P(TimeoutRecovery, Udp1WithinOneSecond) {
    const int timeout_sec = GetParam();
    gateway::DeviceProfile p;
    p.tag = "sweep";
    p.udp.initial = std::chrono::seconds(timeout_sec);

    sim::EventLoop loop;
    Testbed tb(loop);
    tb.add_device(p);
    Testrund rund(tb);
    CampaignConfig cfg;
    cfg.udp1 = true;
    cfg.udp.repetitions = 2;
    const auto r = rund.run_blocking(cfg).at(0);
    EXPECT_NEAR(r.udp1.summary().median, timeout_sec, 1.5)
        << "configured " << timeout_sec;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimeoutRecovery,
                         ::testing::Values(20, 54, 90, 181, 450, 691));

// --- property: NAT translation round-trips arbitrary UDP payloads -----------

class NatInvertibility : public ::testing::TestWithParam<unsigned> {};

TEST_P(NatInvertibility, RandomDatagramsSurviveBothDirections) {
    std::mt19937 rng(GetParam());
    sim::EventLoop loop;
    gateway::DeviceProfile profile;
    profile.tag = "prop";
    gateway::NatEngine nat(loop, profile);
    const net::Ipv4Addr client(192, 168, 1, 100), wan(10, 0, 1, 10),
        server(10, 0, 1, 1);
    nat.set_wan_addr(wan);

    for (int trial = 0; trial < 20; ++trial) {
        const auto sport = static_cast<std::uint16_t>(
            1024 + rng() % 50000);
        const auto dport = static_cast<std::uint16_t>(1 + rng() % 60000);
        net::Bytes payload(rng() % 1200);
        for (auto& b : payload) b = static_cast<std::uint8_t>(rng());

        net::Ipv4Packet pkt;
        pkt.h.protocol = net::proto::kUdp;
        pkt.h.src = client;
        pkt.h.dst = server;
        net::UdpDatagram d;
        d.src_port = sport;
        d.dst_port = dport;
        d.payload = payload;
        pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);

        const auto out = outbound_copy(nat, pkt);
        ASSERT_TRUE(out.has_value());
        const auto outer = net::Ipv4Packet::parse(*out);
        ASSERT_TRUE(outer.h.checksum_ok);
        const auto od =
            net::UdpDatagram::parse(outer.payload, outer.h.src, outer.h.dst);
        ASSERT_TRUE(od.checksum_ok);
        EXPECT_EQ(od.payload, payload);

        // Reply from the server to the observed external endpoint.
        net::Ipv4Packet reply;
        reply.h.protocol = net::proto::kUdp;
        reply.h.src = server;
        reply.h.dst = wan;
        net::UdpDatagram rd;
        rd.src_port = dport;
        rd.dst_port = od.src_port;
        rd.payload = payload;
        reply.payload = rd.serialize(reply.h.src, reply.h.dst);

        bool handled = false;
        const auto in = inbound_copy(nat, reply, handled);
        ASSERT_TRUE(handled);
        ASSERT_TRUE(in.has_value());
        const auto inner = net::Ipv4Packet::parse(*in);
        ASSERT_TRUE(inner.h.checksum_ok);
        EXPECT_EQ(inner.h.dst, client);
        const auto id =
            net::UdpDatagram::parse(inner.payload, inner.h.src, inner.h.dst);
        ASSERT_TRUE(id.checksum_ok);
        EXPECT_EQ(id.dst_port, sport);
        EXPECT_EQ(id.payload, payload);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NatInvertibility,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- property: incremental checksum update == full recomputation ------------

class ChecksumIncremental : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChecksumIncremental, MatchesFullRecomputeForRandomEdits) {
    std::mt19937 rng(GetParam());
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::uint8_t> pkt(20 + rng() % 60 * 2);
        for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
        const auto before = net::internet_checksum(pkt);

        // Edit a random aligned 16-bit word.
        const std::size_t off = (rng() % (pkt.size() / 2)) * 2;
        const auto old_word =
            static_cast<std::uint16_t>((pkt[off] << 8) | pkt[off + 1]);
        const auto new_word = static_cast<std::uint16_t>(rng());
        pkt[off] = static_cast<std::uint8_t>(new_word >> 8);
        pkt[off + 1] = static_cast<std::uint8_t>(new_word);

        EXPECT_EQ(net::checksum_update16(before, old_word, new_word),
                  net::internet_checksum(pkt));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumIncremental,
                         ::testing::Values(11u, 22u, 33u));

// --- property: wire formats round-trip random contents ----------------------

class WireRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(WireRoundTrip, TcpSegmentsSurviveSerializeParse) {
    std::mt19937 rng(GetParam());
    const net::Ipv4Addr src(192, 168, 1, 2), dst(10, 0, 1, 1);
    for (int trial = 0; trial < 50; ++trial) {
        net::TcpSegment s;
        s.src_port = static_cast<std::uint16_t>(rng());
        s.dst_port = static_cast<std::uint16_t>(rng());
        s.seq = rng();
        s.ack = rng();
        s.flags.syn = rng() & 1;
        s.flags.ack = rng() & 1;
        s.flags.fin = rng() & 1;
        s.flags.psh = rng() & 1;
        s.window = static_cast<std::uint16_t>(rng());
        s.payload.resize(rng() % 1460);
        for (auto& b : s.payload) b = static_cast<std::uint8_t>(rng());
        if (rng() & 1) s.add_mss_option(static_cast<std::uint16_t>(rng()));
        if (rng() & 1) s.add_wscale_option(static_cast<std::uint8_t>(rng() % 15));

        const auto bytes = s.serialize(src, dst);
        const auto g = net::TcpSegment::parse(bytes, src, dst);
        EXPECT_TRUE(g.checksum_ok);
        EXPECT_EQ(g.src_port, s.src_port);
        EXPECT_EQ(g.dst_port, s.dst_port);
        EXPECT_EQ(g.seq, s.seq);
        EXPECT_EQ(g.ack, s.ack);
        EXPECT_EQ(g.flags, s.flags);
        EXPECT_EQ(g.window, s.window);
        EXPECT_EQ(g.payload, s.payload);
        EXPECT_EQ(g.mss_option(), s.mss_option());
        EXPECT_EQ(g.wscale_option(), s.wscale_option());
    }
}

TEST_P(WireRoundTrip, Ipv4PacketsSurviveSerializeParse) {
    std::mt19937 rng(GetParam());
    for (int trial = 0; trial < 50; ++trial) {
        net::Ipv4Packet p;
        p.h.tos = static_cast<std::uint8_t>(rng());
        p.h.id = static_cast<std::uint16_t>(rng());
        p.h.ttl = static_cast<std::uint8_t>(1 + rng() % 255);
        p.h.protocol = static_cast<std::uint8_t>(rng());
        p.h.dont_fragment = rng() & 1;
        p.h.src = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
        p.h.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
        p.payload.resize(rng() % 1400);
        for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng());
        const auto g = net::Ipv4Packet::parse(p.serialize());
        EXPECT_TRUE(g.h.checksum_ok);
        EXPECT_EQ(g.h.tos, p.h.tos);
        EXPECT_EQ(g.h.id, p.h.id);
        EXPECT_EQ(g.h.ttl, p.h.ttl);
        EXPECT_EQ(g.h.protocol, p.h.protocol);
        EXPECT_EQ(g.h.dont_fragment, p.h.dont_fragment);
        EXPECT_EQ(g.h.src, p.h.src);
        EXPECT_EQ(g.h.dst, p.h.dst);
        EXPECT_EQ(g.payload, p.payload);
    }
}

TEST_P(WireRoundTrip, ParserNeverCrashesOnRandomBytes) {
    std::mt19937 rng(GetParam());
    const net::Ipv4Addr a(1, 2, 3, 4), b(5, 6, 7, 8);
    for (int trial = 0; trial < 300; ++trial) {
        net::Bytes junk(rng() % 120);
        for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng());
        // Parsers must throw ParseError or produce a value — never crash
        // or read out of bounds (ASAN-visible).
        try {
            (void)net::Ipv4Packet::parse(junk);
        } catch (const net::ParseError&) {
        }
        try {
            (void)net::TcpSegment::parse(junk, a, b);
        } catch (const net::ParseError&) {
        }
        try {
            (void)net::UdpDatagram::parse(junk, a, b);
        } catch (const net::ParseError&) {
        }
        try {
            (void)net::IcmpMessage::parse(junk);
        } catch (const net::ParseError&) {
        }
        try {
            (void)net::SctpPacket::parse(junk);
        } catch (const net::ParseError&) {
        }
        try {
            (void)net::DccpPacket::parse(junk, a, b);
        } catch (const net::ParseError&) {
        }
        try {
            (void)net::DnsMessage::parse(junk);
        } catch (const net::ParseError&) {
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip,
                         ::testing::Values(101u, 202u, 303u));

// --- property: percentile is monotone and bounded ---------------------------

class PercentileProps : public ::testing::TestWithParam<unsigned> {};

TEST_P(PercentileProps, MonotoneAndWithinRange) {
    std::mt19937 rng(GetParam());
    std::vector<double> xs(1 + rng() % 40);
    for (auto& x : xs) x = static_cast<double>(rng() % 1000);
    double prev = -1e300;
    for (double p = 0; p <= 100; p += 5) {
        const double v = stats::percentile(xs, p);
        EXPECT_GE(v, prev);
        EXPECT_GE(v, *std::min_element(xs.begin(), xs.end()));
        EXPECT_LE(v, *std::max_element(xs.begin(), xs.end()));
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProps,
                         ::testing::Values(7u, 13u, 99u));
