// DNSSEC-readiness extension (paper section 5 "more extensive DNSSEC"
// tests; cited router studies [1,5,9]): EDNS0 wire support, server-side
// truncation semantics, the two proxy failure modes, and the probe's
// TCP-retry ladder.
#include <gtest/gtest.h>

#include "harness/testrund.hpp"
#include "net/dns.hpp"
#include "stack/dns_service.hpp"
#include "testutil.hpp"

using namespace gatekit;
using namespace gatekit::harness;
using gateway::DeviceProfile;

TEST(Edns, OptRecordRoundTrip) {
    auto q = net::DnsMessage::make_query(7, "x.fi", net::kDnsTypeTxt);
    q.edns_udp_size = 4096;
    const auto g = net::DnsMessage::parse(q.serialize());
    ASSERT_TRUE(g.edns_udp_size.has_value());
    EXPECT_EQ(*g.edns_udp_size, 4096);
    EXPECT_EQ(g.questions.front().qtype, net::kDnsTypeTxt);
}

TEST(Edns, AbsentWithoutOpt) {
    const auto q = net::DnsMessage::make_query(7, "x.fi");
    const auto g = net::DnsMessage::parse(q.serialize());
    EXPECT_FALSE(g.edns_udp_size.has_value());
}

TEST(Edns, TxtFillerHasRequestedSize) {
    const auto rec = net::DnsMessage::make_txt_filler("big.fi", 1100);
    EXPECT_GE(rec.rdata.size(), 1100u);
    EXPECT_LE(rec.rdata.size(), 1100u + 8u);
    EXPECT_EQ(rec.rtype, net::kDnsTypeTxt);
}

TEST(Edns, ServerTruncatesWithoutEdnsAndDeliversWithIt) {
    testutil::Net2 net;
    stack::DnsServer server(net.b, net::Ipv4Addr::any());
    server.add_txt_record("big.fi", 1100);

    struct Outcome {
        bool got = false;
        bool truncated = false;
        std::size_t size = 0;
    };
    auto ask = [&](std::optional<std::uint16_t> edns) {
        Outcome out;
        auto& sock = net.a.udp_open(net::Ipv4Addr::any(), 0);
        sock.set_receive_handler(
            [&out](net::Endpoint, std::span<const std::uint8_t> p,
                   const net::PacketView&) {
                const auto resp = net::DnsMessage::parse(p);
                out.got = true;
                out.truncated = resp.truncated;
                out.size = p.size();
            });
        auto q = net::DnsMessage::make_query(9, "big.fi", net::kDnsTypeTxt);
        q.edns_udp_size = edns;
        sock.send_to({net::Ipv4Addr(10, 0, 0, 2), 53}, q.serialize());
        net.loop.run();
        net.a.udp_close(sock);
        return out;
    };

    const auto plain = ask(std::nullopt);
    ASSERT_TRUE(plain.got);
    EXPECT_TRUE(plain.truncated);
    EXPECT_LE(plain.size, net::kDnsClassicUdpLimit);

    const auto edns = ask(4096);
    ASSERT_TRUE(edns.got);
    EXPECT_FALSE(edns.truncated);
    EXPECT_GT(edns.size, 1100u);
}

namespace {

DeviceProfile dns_profile() {
    DeviceProfile p;
    p.tag = "dnsx";
    p.dns_tcp = gateway::DnsTcpMode::ProxyTcp;
    return p;
}

DnsProbeResult probe(DeviceProfile p) {
    sim::EventLoop loop;
    Testbed tb(loop);
    tb.add_device(std::move(p));
    Testrund rund(tb);
    CampaignConfig cfg;
    cfg.dns = true;
    return rund.run_blocking(cfg).at(0).dns;
}

} // namespace

TEST(DnssecReadiness, CleanProxyPassesBigUdpAnswer) {
    const auto r = probe(dns_profile());
    EXPECT_TRUE(r.big_udp_ok);
    EXPECT_TRUE(r.dnssec_ready);
    EXPECT_FALSE(r.truncated_seen);
}

TEST(DnssecReadiness, EdnsStrippingForcesTcpRetry) {
    auto p = dns_profile();
    p.dns_proxy_strips_edns = true;
    const auto r = probe(p);
    EXPECT_FALSE(r.big_udp_ok);
    EXPECT_TRUE(r.truncated_seen); // upstream fell back to 512-byte rule
    EXPECT_TRUE(r.dnssec_ready);   // ProxyTcp saves it
}

TEST(DnssecReadiness, EdnsStrippingWithoutTcpIsBroken) {
    auto p = dns_profile();
    p.dns_proxy_strips_edns = true;
    p.dns_tcp = gateway::DnsTcpMode::NoListen;
    const auto r = probe(p);
    EXPECT_FALSE(r.big_udp_ok);
    EXPECT_FALSE(r.dnssec_ready);
}

TEST(DnssecReadiness, SizeCappedProxyDropsBigAnswers) {
    auto p = dns_profile();
    p.dns_proxy_max_udp = 512;
    p.dns_tcp = gateway::DnsTcpMode::NoListen;
    const auto r = probe(p);
    EXPECT_FALSE(r.big_udp_ok);
    EXPECT_FALSE(r.truncated_seen); // silently dropped, not truncated
    EXPECT_FALSE(r.dnssec_ready);
}

TEST(DnssecReadiness, SizeCappedProxyRescuedByTcp) {
    auto p = dns_profile();
    p.dns_proxy_max_udp = 512;
    const auto r = probe(p); // ProxyTcp
    EXPECT_FALSE(r.big_udp_ok);
    EXPECT_TRUE(r.dnssec_ready);
}
