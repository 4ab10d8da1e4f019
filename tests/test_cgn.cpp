// Carrier-grade NAT and NAT444 cascaded topologies: CgnEngine unit tests
// (deterministic port blocks, shared-pool exhaustion, EIM/EDM, hairpin,
// embedded-quote rewriting, the translator's defined malformed-input
// cases) plus end-to-end regression tests for the multi-hop bugs the
// cascade flushed out — off-subnet ARP blackholes, missing Time Exceeded
// at the second hop, stale checksums in double-translated ICMP quotes,
// and several gateways sharing one CGN.
#include "gateway/cgn.hpp"

#include <gtest/gtest.h>

#include "devices/profiles.hpp"
#include "harness/holepunch.hpp"
#include "harness/tcp_probes.hpp"
#include "harness/testbed.hpp"
#include "net/checksum.hpp"
#include "net/icmp.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"
#include "testutil.hpp"

using namespace gatekit;
using namespace gatekit::gateway;
using harness::Testbed;
using testutil::Net2;
using testutil::inbound_copy;
using testutil::outbound_copy;

namespace {

const net::Ipv4Addr kAccess(100, 64, 0, 1);
const net::Ipv4Addr kExternal(198, 51, 100, 7);
const net::Ipv4Addr kRemote(10, 0, 9, 9);

net::Ipv4Packet udp_pkt(net::Ipv4Addr src, std::uint16_t sport,
                        net::Ipv4Addr dst, std::uint16_t dport,
                        net::Bytes payload = {1}) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = src;
    pkt.h.dst = dst;
    pkt.h.ttl = 64;
    net::UdpDatagram d;
    d.src_port = sport;
    d.dst_port = dport;
    d.payload = std::move(payload);
    pkt.payload = d.serialize(src, dst);
    return pkt;
}

std::uint16_t udp_src_port(const net::Bytes& wire) {
    const auto pkt = net::Ipv4Packet::parse(wire);
    return net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst)
        .src_port;
}

struct EngineBed {
    sim::EventLoop loop;
    CgnEngine engine;
    explicit EngineBed(CgnConfig cfg = {}) : engine(loop, cfg) {
        engine.set_addresses(kAccess, 24, kExternal);
    }
};

/// Valid IPv4 header iff the RFC 1071 sum over it (checksum included)
/// folds to zero.
bool ip_header_checksum_ok(std::span<const std::uint8_t> quote) {
    if (quote.size() < 20) return false;
    const std::size_t ihl = static_cast<std::size_t>(quote[0] & 0xf) * 4;
    if (quote.size() < ihl) return false;
    return net::internet_checksum(quote.subspan(0, ihl)) == 0;
}

} // namespace

// --- Satellite: off-subnet ARP blackhole (stack::Iface) -------------------

// Regression: send_ip_raw with an off-subnet next hop used to broadcast
// ARP requests no one on the segment answers, parking the datagram
// behind a doomed resolution until the retry budget dropped it. The
// interface must resolve its configured gateway instead.
TEST(Netif, OffSubnetSendResolvesGatewayNotDestination) {
    Net2 net;
    net.ia.set_gateway(net::Ipv4Addr(10, 0, 0, 2)); // host b

    const net::Ipv4Addr far(192, 168, 7, 7);
    bool forwarded = false;
    net.b.set_forward_hook([&](stack::Iface&, const net::PacketView& v,
                               std::span<const std::uint8_t>) {
        if (v.dst() == far) forwarded = true;
    });

    const auto bytes =
        udp_pkt(net::Ipv4Addr(10, 0, 0, 1), 40000, far, 7000).serialize();
    net.a.send_raw(net.ia, bytes, far); // off-subnet next hop, verbatim
    net.loop.run();

    EXPECT_TRUE(forwarded);
    // The resolution that happened was for the gateway — the off-subnet
    // address never entered the ARP cache.
    EXPECT_TRUE(net.ia.arp_cache().lookup(net::Ipv4Addr(10, 0, 0, 2)));
    EXPECT_FALSE(net.ia.arp_cache().lookup(far));
}

TEST(Netif, OffSubnetSendWithoutGatewayDropsSilently) {
    Net2 net;
    const net::Ipv4Addr far(192, 168, 7, 7);
    const auto bytes =
        udp_pkt(net::Ipv4Addr(10, 0, 0, 1), 40000, far, 7000).serialize();
    net.a.send_raw(net.ia, bytes, far);
    net.loop.run();
    // No router on the segment: the datagram is unroutable, and no ARP
    // chatter is emitted for an address no one can answer for.
    EXPECT_EQ(net.link.frames_sent(sim::Link::Side::A), 0u);
}

// --- CgnEngine: deterministic blocks --------------------------------------

TEST(CgnEngine, DeterministicBlocksComputableOffline) {
    EngineBed bed; // defaults: pool 1024..65534, block_size 2048
    EXPECT_EQ(bed.engine.num_blocks(), 31);

    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto info = bed.engine.block_of(sub);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->index, 5); // host-id 5 mod 31
    EXPECT_EQ(info->begin, 1024 + 5 * 2048);
    EXPECT_EQ(info->end, 1024 + 6 * 2048 - 1);

    // The translation draws from exactly the block the offline formula
    // names — the RFC 7422 "no per-flow logging" property.
    const auto out =
        outbound_copy(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    const auto port = udp_src_port(*out);
    EXPECT_GE(port, info->begin);
    EXPECT_LE(port, info->end);
    EXPECT_EQ(bed.engine.live_bindings(sub), 1u);
}

TEST(CgnEngine, BlockCollisionRefusesSecondSubscriber) {
    EngineBed bed;
    // Host ids 5 and 36 are congruent mod 31: same deterministic block.
    const net::Ipv4Addr first(100, 64, 0, 5);
    const net::Ipv4Addr second(100, 64, 0, 36);
    ASSERT_TRUE(outbound_copy(bed.engine, udp_pkt(first, 40000, kRemote, 7000))
                    .has_value());
    EXPECT_FALSE(
        outbound_copy(bed.engine, udp_pkt(second, 41000, kRemote, 7000))
            .has_value());
    EXPECT_EQ(bed.engine.stats().block_collisions, 1u);
    // The owner is unaffected — no port leakage across the collision.
    EXPECT_TRUE(outbound_copy(bed.engine, udp_pkt(first, 40001, kRemote, 7000))
                    .has_value());
    EXPECT_EQ(bed.engine.live_bindings(second), 0u);
}

TEST(CgnEngine, SharedPoolExhaustionHitsTheVictim) {
    CgnConfig cfg;
    cfg.block_size = 0; // one shared pool
    cfg.pool_begin = 50000;
    cfg.pool_end = 50003; // 4 ports total
    EngineBed bed(cfg);

    // A churning subscriber takes the whole pool...
    const net::Ipv4Addr churner(100, 64, 0, 10);
    for (std::uint16_t i = 0; i < 4; ++i)
        ASSERT_TRUE(outbound_copy(bed.engine,
                                  udp_pkt(churner, 40000 + i, kRemote, 7000))
                        .has_value());
    // ...and an unrelated subscriber's first flow is refused: the ReDAN
    // victim scenario deterministic blocks exist to prevent.
    const net::Ipv4Addr victim(100, 64, 0, 20);
    EXPECT_FALSE(
        outbound_copy(bed.engine, udp_pkt(victim, 40000, kRemote, 7000))
            .has_value());
    EXPECT_GE(bed.engine.stats().pool_exhausted, 1u);
}

TEST(CgnEngine, EimSharesOnePortAcrossRemotes) {
    EngineBed bed; // eim = true
    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto a =
        outbound_copy(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    const auto b = outbound_copy(
        bed.engine, udp_pkt(sub, 40000, net::Ipv4Addr(10, 0, 8, 8), 9));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    // Endpoint-independent: both flows ride one external port (what makes
    // hole punching through the CGN layer possible)...
    EXPECT_EQ(udp_src_port(*a), udp_src_port(*b));
    // ...while a different internal port draws a fresh one.
    const auto c =
        outbound_copy(bed.engine, udp_pkt(sub, 40001, kRemote, 7000));
    ASSERT_TRUE(c.has_value());
    EXPECT_NE(udp_src_port(*a), udp_src_port(*c));
}

TEST(CgnEngine, EdmDrawsFreshPortPerFlow) {
    CgnConfig cfg;
    cfg.eim = false;
    EngineBed bed(cfg);
    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto a =
        outbound_copy(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    const auto b = outbound_copy(
        bed.engine, udp_pkt(sub, 40000, net::Ipv4Addr(10, 0, 8, 8), 9));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_NE(udp_src_port(*a), udp_src_port(*b)); // symmetric mapping
}

TEST(CgnEngine, HairpinConnectsTwoSubscribers) {
    EngineBed bed;
    const net::Ipv4Addr alice(100, 64, 0, 5);
    const net::Ipv4Addr bob(100, 64, 0, 6);
    const auto out =
        outbound_copy(bed.engine, udp_pkt(alice, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    const auto alice_ext = udp_src_port(*out);

    net::Bytes pinned = udp_pkt(bob, 41000, kExternal, alice_ext).serialize();
    auto v = net::PacketView::of(pinned);
    ASSERT_TRUE(bed.engine.hairpin(v));
    const auto pkt = net::Ipv4Packet::parse(pinned);
    // Bob's packet arrives at Alice from the external address (RFC 4787
    // REQ-9 "external source" presentation), on her internal endpoint.
    EXPECT_EQ(pkt.h.src, kExternal);
    EXPECT_EQ(pkt.h.dst, alice);
    const auto d = net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst);
    EXPECT_EQ(d.dst_port, 40000);
    // Bob's side got a real mapping in his own block.
    const auto bob_block = bed.engine.block_of(bob);
    EXPECT_GE(d.src_port, bob_block->begin);
    EXPECT_LE(d.src_port, bob_block->end);
    EXPECT_EQ(bed.engine.stats().hairpinned, 1u);
}

TEST(CgnEngine, HairpinDisabledByConfig) {
    CgnConfig cfg;
    cfg.hairpin = false;
    EngineBed bed(cfg);
    const net::Ipv4Addr alice(100, 64, 0, 5);
    const auto out =
        outbound_copy(bed.engine, udp_pkt(alice, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    const net::Bytes sent = udp_pkt(net::Ipv4Addr(100, 64, 0, 6), 41000,
                                    kExternal, udp_src_port(*out))
                                .serialize();
    net::Bytes bytes = sent;
    auto v = net::PacketView::of(bytes);
    EXPECT_FALSE(bed.engine.hairpin(v));
    EXPECT_EQ(bytes, sent); // a refusal leaves the datagram untouched
}

TEST(CgnEngine, UnsolicitedInboundIsNotHandled) {
    EngineBed bed;
    // A pool port whose block was never activated: nothing to deliver to.
    bool handled = true;
    EXPECT_FALSE(inbound_copy(bed.engine,
                              udp_pkt(kRemote, 7000, kExternal, 30000),
                              handled)
                     .has_value());
    EXPECT_FALSE(handled); // falls through to the CGN's own stack

    // With a live binding, a packet from the WRONG remote endpoint is
    // still refused: the CGN filters endpoint-dependently (RFC 6888's
    // default posture) and counts the drop.
    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto out =
        outbound_copy(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    handled = true;
    EXPECT_FALSE(inbound_copy(bed.engine,
                              udp_pkt(net::Ipv4Addr(10, 0, 8, 8), 7000,
                                      kExternal, udp_src_port(*out)),
                              handled)
                     .has_value());
    EXPECT_FALSE(handled);
    EXPECT_EQ(bed.engine.stats().dropped_no_binding, 1u);
}

// --- The cases the in-place translator defines -----------------------------

namespace {

/// Ones-complement residual of a UDP/TCP datagram's transport checksum:
/// 0 when it is right, the error it carries otherwise.
std::uint16_t l4_residual(const net::Bytes& datagram) {
    const auto pkt = net::Ipv4Packet::parse(datagram);
    net::ChecksumAccumulator acc;
    net::add_pseudo_header(acc, pkt.h.src, pkt.h.dst, pkt.h.protocol,
                           static_cast<std::uint16_t>(pkt.payload.size()));
    acc.add_bytes(pkt.payload);
    return acc.finalize();
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
    pkt.payload = seg.serialize(src, dst);
    return pkt;
}

} // namespace

TEST(CgnEngine, FragmentsAreAnOutboundDropAndNotOursInbound) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    auto frag = udp_pkt(sub, 40000, kRemote, 7000);
    frag.h.more_fragments = true;
    EXPECT_FALSE(outbound_copy(bed.engine, frag).has_value());
    ASSERT_NE(bed.engine.engine_for(sub), nullptr);
    EXPECT_EQ(bed.engine.engine_for(sub)->stats().dropped_malformed, 1u);
    EXPECT_EQ(bed.engine.stats().pool_exhausted, 0u);
    EXPECT_EQ(bed.engine.live_bindings(sub), 0u);

    const auto out =

        outbound_copy(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    auto reply = udp_pkt(kRemote, 7000, kExternal, udp_src_port(*out));
    reply.h.more_fragments = true;
    bool handled = true;
    EXPECT_FALSE(inbound_copy(bed.engine, reply, handled).has_value());
    EXPECT_FALSE(handled);
}

TEST(CgnEngine, UnsoundTransportGeometryIsACountedDrop) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    auto udp = udp_pkt(sub, 40000, kRemote, 7000, {1, 2, 3});
    udp.payload[5] = static_cast<std::uint8_t>(udp.payload[5] - 1);
    EXPECT_FALSE(outbound_copy(bed.engine, udp).has_value());

    auto tcp = tcp_syn(sub, 41000, kRemote, 80);
    tcp.payload[12] = 0xf0; // data offset 60 over a 20-byte segment
    EXPECT_FALSE(outbound_copy(bed.engine, tcp).has_value());

    EXPECT_EQ(bed.engine.engine_for(sub)->stats().dropped_malformed, 2u);
    EXPECT_EQ(bed.engine.live_bindings(sub), 0u);
}

TEST(CgnEngine, ChecksumlessUdpStaysChecksumless) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    auto pkt = udp_pkt(sub, 40000, kRemote, 7000);
    pkt.payload[6] = pkt.payload[7] = 0;
    const auto out = outbound_copy(bed.engine, pkt);
    ASSERT_TRUE(out.has_value());
    const auto wire = net::Ipv4Packet::parse(*out);
    EXPECT_EQ(wire.h.src, kExternal);
    EXPECT_EQ(wire.payload[6], 0);
    EXPECT_EQ(wire.payload[7], 0);
}

TEST(CgnEngine, WrongTcpChecksumKeepsItsError) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    auto pkt = tcp_syn(sub, 41000, kRemote, 80);
    pkt.payload[16] ^= 0x5a; // damaged in flight
    const auto in_error = l4_residual(pkt.serialize());
    ASSERT_NE(in_error, 0);
    const auto out = outbound_copy(bed.engine, pkt);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(l4_residual(*out), in_error);
}

// --- Satellite: embedded-quote rewriting (the double-NAT ICMP fix) --------

// Regression: an inbound ICMP error's quote must be rewritten to the
// subscriber's view with VALID checksums. A stale quote IP checksum (or
// a UDP checksum rewritten to raw 0x0000, which means "disabled")
// survives a single NAT layer, but the next layer of a NAT444 cascade
// either re-translates garbage or refuses to attribute the error.
TEST(CgnEngine, InboundErrorQuoteRewrittenWithValidChecksums) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    // Empty payload: the whole datagram fits the RFC 792 8-byte quote,
    // so the UDP checksum is verifiable end-to-end after rewriting.
    const auto out =
        outbound_copy(bed.engine, udp_pkt(sub, 40000, kRemote, 7000, {}));
    ASSERT_TRUE(out.has_value());

    net::Ipv4Packet err;
    err.h.protocol = net::proto::kIcmp;
    err.h.src = kRemote;
    err.h.dst = kExternal;
    err.h.ttl = 60;
    err.payload = net::IcmpMessage::make_error(
                      net::IcmpType::DestUnreachable,
                      net::icmp_code::kPortUnreachable, 0, *out)
                      .serialize();

    bool handled = false;
    const auto relayed = inbound_copy(bed.engine, err, handled);
    ASSERT_TRUE(handled);
    ASSERT_TRUE(relayed.has_value());

    const auto outer = net::Ipv4Packet::parse(*relayed);
    EXPECT_EQ(outer.h.dst, sub);
    const auto msg = net::IcmpMessage::parse(outer.payload);
    const auto quote = IcmpQuote::parse(msg.payload);
    ASSERT_TRUE(quote.has_value());
    EXPECT_EQ(quote->src, sub); // internal view restored
    ASSERT_GE(quote->l4.size(), 8u);
    const auto d = net::UdpDatagram::parse(quote->l4, quote->src, quote->dst);
    EXPECT_EQ(d.src_port, 40000);
    EXPECT_TRUE(ip_header_checksum_ok(msg.payload));
    EXPECT_TRUE(d.checksum_ok);
}

namespace {

net::Ipv4Packet icmp_pkt(net::Ipv4Addr src, net::Ipv4Addr dst,
                         const net::IcmpMessage& msg) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kIcmp;
    pkt.h.src = src;
    pkt.h.dst = dst;
    pkt.h.ttl = 64;
    pkt.payload = msg.serialize();
    return pkt;
}

net::Ipv4Packet echo_pkt(net::Ipv4Addr src, net::Ipv4Addr dst,
                         std::uint16_t id) {
    return icmp_pkt(src, dst, net::IcmpMessage::make_echo(false, id, 1));
}

/// An error from kRemote to the external address quoting `original`.
net::Ipv4Packet error_pkt(net::IcmpType type, std::uint8_t code,
                          std::span<const std::uint8_t> original) {
    return icmp_pkt(kRemote, kExternal,
                    net::IcmpMessage::make_error(type, code, 0, original));
}

} // namespace

// Regression: the error path never read an echo query's expiry, so an
// error naming a query that had timed out was still relayed.
TEST(CgnEngine, ErrorAboutAnExpiredEchoQueryIsNotRelayed) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    ASSERT_TRUE(outbound_copy(bed.engine, echo_pkt(sub, kRemote, 0x5151)));
    const auto err = error_pkt(net::IcmpType::DestUnreachable,
                               net::icmp_code::kHostUnreachable,
                               echo_pkt(kExternal, kRemote, 0x5151).serialize());
    bool handled = false;
    EXPECT_TRUE(inbound_copy(bed.engine, err, handled).has_value());
    EXPECT_TRUE(handled);

    bed.loop.run_until(bed.loop.now() + std::chrono::seconds(61));
    handled = true;
    EXPECT_FALSE(inbound_copy(bed.engine, err, handled).has_value());
    EXPECT_FALSE(handled); // the CGN's own stack gets it
    EXPECT_EQ(bed.engine.stats().icmp_relayed, 1u);
}

// Regression: the CGN relayed every error type whatever its code, while
// the home NAT refuses codes no RFC defines.
TEST(CgnEngine, UndefinedErrorCodesAreNotRelayed) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto out =
        outbound_copy(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    for (const auto& [type, code] :
         {std::pair{net::IcmpType::TimeExceeded, std::uint8_t{2}},
          std::pair{net::IcmpType::DestUnreachable, std::uint8_t{13}}}) {
        bool handled = true;
        EXPECT_FALSE(
            inbound_copy(bed.engine, error_pkt(type, code, *out), handled)
                .has_value());
        EXPECT_FALSE(handled);
    }
    EXPECT_EQ(bed.engine.stats().icmp_relayed, 0u);

    bool handled = false;
    EXPECT_TRUE(inbound_copy(bed.engine, error_pkt(net::IcmpType::TimeExceeded,
                                       net::icmp_code::kTtlExceeded, *out),
                             handled)
                    .has_value());
    EXPECT_EQ(bed.engine.stats().icmp_relayed, 1u);
}

// --- ICMP through NatEngine: the cases the in-place path defines ----------

namespace {

/// An ICMP message's checksum error over its whole length.
std::uint16_t icmp_residual(const net::Bytes& datagram) {
    const auto pkt = net::Ipv4Packet::parse(datagram);
    return net::internet_checksum(pkt.payload);
}

} // namespace

// Errors the CGN relays, either way, get an ICMP checksum computed over
// the rewritten quote; an echo crosses with the checksum it came with.
TEST(CgnEngine, RelayedErrorsGetAFreshIcmpChecksumQueriesKeepTheirs) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    auto echo = echo_pkt(sub, kRemote, 0x6161);
    echo.payload[2] ^= 0x11; // wrong ICMP checksum
    const auto echo_error = net::internet_checksum(echo.payload);
    const auto sent = outbound_copy(bed.engine, echo);
    ASSERT_TRUE(sent.has_value());
    EXPECT_EQ(icmp_residual(*sent), echo_error);
    EXPECT_EQ(bed.engine.stats().translated_out, 1u);

    const auto out =

        outbound_copy(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    auto in_err = error_pkt(net::IcmpType::DestUnreachable,
                            net::icmp_code::kPortUnreachable, *out);
    in_err.payload[3] ^= 0x22;
    bool handled = false;
    const auto relayed_in = inbound_copy(bed.engine, in_err, handled);
    ASSERT_TRUE(relayed_in.has_value());
    EXPECT_EQ(icmp_residual(*relayed_in), 0);

    // A subscriber's error about the inbound datagram it received.
    const auto received = udp_pkt(kRemote, 7000, sub, 40000).serialize();
    auto out_err = icmp_pkt(
        sub, kRemote,
        net::IcmpMessage::make_error(net::IcmpType::DestUnreachable,
                                     net::icmp_code::kPortUnreachable, 0,
                                     received));
    out_err.payload[2] ^= 0x44;
    const auto relayed_out = outbound_copy(bed.engine, out_err);
    ASSERT_TRUE(relayed_out.has_value());
    EXPECT_EQ(icmp_residual(*relayed_out), 0);
    EXPECT_EQ(bed.engine.stats().icmp_relayed, 2u);
}

// ICMP shorter than its header: dropped going out (the echo-query
// engine's malformed drop; no CGN counter moves), not ours coming in.
TEST(CgnEngine, TruncatedIcmpIsDroppedOutAndNotOursIn) {
    EngineBed bed;
    net::Ipv4Packet stub;
    stub.h.protocol = net::proto::kIcmp;
    stub.h.src = net::Ipv4Addr(100, 64, 0, 5);
    stub.h.dst = kRemote;
    stub.payload = {8, 0, 0, 0};
    EXPECT_FALSE(outbound_copy(bed.engine, stub).has_value());
    stub.h.src = kRemote;
    stub.h.dst = kExternal;
    stub.payload = {0, 0, 0};
    bool handled = true;
    EXPECT_FALSE(inbound_copy(bed.engine, stub, handled).has_value());
    EXPECT_FALSE(handled);
    const auto& s = bed.engine.stats();
    EXPECT_EQ(s.translated_out + s.translated_in + s.dropped_policy +
                  s.icmp_relayed + s.icmp_dropped,
              0u);
}

// The carrier's echo queries live in a NatEngine, so its cap of 1024
// live queries is the CGN's; refusals still count as dropped_policy.
TEST(CgnEngine, EchoQueryCapIsNatEngines) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    for (std::uint16_t id = 0; id < 1024; ++id)
        ASSERT_TRUE(outbound_copy(bed.engine, echo_pkt(sub, kRemote, id)));
    EXPECT_FALSE(outbound_copy(bed.engine, echo_pkt(sub, kRemote, 1024)));
    EXPECT_EQ(bed.engine.stats().dropped_policy, 1u);
    // Once the queries time out, the table has room again.
    bed.loop.run_until(bed.loop.now() + std::chrono::seconds(61));
    EXPECT_TRUE(outbound_copy(bed.engine, echo_pkt(sub, kRemote, 1024)));
}

// --- NAT444 end-to-end ----------------------------------------------------

namespace {

DeviceProfile member_profile(const char* tag) {
    DeviceProfile p;
    p.tag = tag;
    p.icmp_tcp = IcmpTranslationSet::all();
    p.icmp_udp = IcmpTranslationSet::all();
    p.hairpin = true;
    return p;
}

} // namespace

TEST(Nat444, BringUpAndEchoThroughBothLayers) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int ia = tb.add_device_behind_cgn(member_profile("m1"), g);
    const int ib = tb.add_device_behind_cgn(member_profile("m2"), g);
    tb.start_and_wait();

    auto& group = tb.cgn_group(g);
    EXPECT_TRUE(group.cgn->ready());
    // Members leased their WAN addresses from the carrier access pool.
    EXPECT_TRUE(tb.slot(ia).gw_wan_addr.same_subnet(group.cgn->access_addr(),
                                                    24));
    EXPECT_TRUE(tb.slot(ib).gw_wan_addr.same_subnet(group.cgn->access_addr(),
                                                    24));
    EXPECT_NE(tb.slot(ia).gw_wan_addr, tb.slot(ib).gw_wan_addr);

    // Echo across the full chain; the server must see the CGN's single
    // external address, not the member's access-side lease.
    net::Ipv4Addr seen_by_server;
    auto& echo = tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    echo.set_receive_handler([&](net::Endpoint src,
                                 std::span<const std::uint8_t> p,
                                 const net::PacketView&) {
        seen_by_server = src.addr;
        echo.send_to(src, p);
    });

    int echoed = 0;
    auto& sock_a = tb.client().udp_open(tb.slot(ia).client_addr, 46000,
                                        tb.slot(ia).client_if);
    auto& sock_b = tb.client().udp_open(tb.slot(ib).client_addr, 46000,
                                        tb.slot(ib).client_if);
    sock_a.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t>,
                                   const net::PacketView&) { ++echoed; });
    sock_b.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t>,
                                   const net::PacketView&) { ++echoed; });
    sock_a.send_to({tb.slot(ia).server_addr, 7000}, {{'a'}});
    loop.run_for(std::chrono::milliseconds(50));
    sock_b.send_to({tb.slot(ib).server_addr, 7000}, {{'b'}});
    loop.run_for(std::chrono::milliseconds(50));

    EXPECT_EQ(echoed, 2);
    EXPECT_EQ(seen_by_server, group.external_addr);
}

// Regression: a TTL expiring at the SECOND hop used to vanish — the CGN
// forwarded without decrementing and no hop ever answered — so
// traceroute through a NAT444 chain showed one router where two exist.
TEST(Nat444, TracerouteSeesBothNatHops) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int i = tb.add_device_behind_cgn(member_profile("m1"), g);
    tb.start_and_wait();

    auto& sock = tb.client().udp_open(tb.slot(i).client_addr, 46000,
                                      tb.slot(i).client_if);
    std::vector<std::pair<net::Ipv4Addr, net::IcmpType>> hops;
    tb.client().set_icmp_observer(
        [&](const net::PacketView& outer, const net::IcmpMessage& msg) {
            if (msg.is_error()) hops.emplace_back(outer.src(), msg.type);
        });

    stack::UdpSocket::SendOptions opts;
    for (std::uint8_t ttl = 1; ttl <= 2; ++ttl) {
        opts.ttl = ttl;
        sock.send_to({tb.slot(i).server_addr, 33434}, {{0xbe}}, opts);
        loop.run_for(std::chrono::milliseconds(50));
    }

    ASSERT_EQ(hops.size(), 2u);
    // Hop 1: the home gateway, answering with its LAN address.
    EXPECT_EQ(hops[0].first, net::Ipv4Addr(192, 168, 2, 1));
    EXPECT_EQ(hops[0].second, net::IcmpType::TimeExceeded);
    // Hop 2: the CGN. Its Time Exceeded quotes the member gateway's
    // translated packet, so delivery to the client proves the home NAT
    // attributed and re-translated the quote.
    EXPECT_EQ(hops[1].first, tb.cgn_group(g).cgn->access_addr());
    EXPECT_EQ(hops[1].second, net::IcmpType::TimeExceeded);
}

// Regression companion to the quote-rewriting unit test, across the real
// chain: a server-side port unreachable traverses CGN then home NAT, and
// the quote the client sees must carry its own endpoint with checksums
// that verify (both NAT layers rewrote incrementally).
TEST(Nat444, PortUnreachableQuoteSurvivesDoubleTranslation) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int i = tb.add_device_behind_cgn(member_profile("m1"), g);
    tb.start_and_wait();

    auto& sock = tb.client().udp_open(tb.slot(i).client_addr, 46000,
                                      tb.slot(i).client_if);
    std::optional<net::IcmpMessage> got;
    tb.client().set_icmp_observer(
        [&](const net::PacketView&, const net::IcmpMessage& msg) {
            if (msg.is_error()) got = msg;
        });
    // Empty payload so the UDP checksum is verifiable from the 8-byte
    // quote; port 9 has no listener on the test server.
    sock.send_to({tb.slot(i).server_addr, 9}, {});
    loop.run_for(std::chrono::milliseconds(100));

    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, net::IcmpType::DestUnreachable);
    const auto quote = IcmpQuote::parse(got->payload);
    ASSERT_TRUE(quote.has_value());
    EXPECT_EQ(quote->src, tb.slot(i).client_addr);
    EXPECT_EQ(quote->dst, tb.slot(i).server_addr);
    const auto d = net::UdpDatagram::parse(quote->l4, quote->src, quote->dst);
    EXPECT_EQ(d.src_port, 46000);
    EXPECT_TRUE(ip_header_checksum_ok(got->payload));
    EXPECT_TRUE(d.checksum_ok);
}

// Regression: gateways behind one CGN share the group's uplink subnet,
// so the test client holds one route to it per member and the route
// table keeps the first. Every member's address-bound traffic left
// through member 0's VLAN; gateway 0 translated it and dropped the
// replies at its LAN egress, so TCP-2 on the other members never moved
// a byte. Egress now follows the interface that owns the source address.
TEST(Nat444, Tcp2CompletesForEveryMemberOfOneCgn) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const auto& profiles = devices::all_profiles();
    std::vector<int> members;
    for (std::size_t i = 0; i < 3; ++i)
        members.push_back(tb.add_device_behind_cgn(profiles[i], g));
    tb.start_and_wait();

    std::uint16_t port = 5001;
    for (const int m : members) {
        harness::ThroughputConfig cfg;
        cfg.bytes = 1'000'000;
        cfg.port_base = port;
        port = static_cast<std::uint16_t>(port + 10);
        std::optional<harness::ThroughputResult> r;
        harness::measure_throughput(
            tb, m, cfg, [&r](harness::ThroughputResult res) { r = res; });
        for (int s = 0; s < 1200 && !r; ++s)
            loop.run_for(std::chrono::seconds(1));
        ASSERT_TRUE(r.has_value()) << "member " << m;
        for (const auto* leg : {&r->upload, &r->download, &r->upload_bidir,
                                &r->download_bidir}) {
            EXPECT_TRUE(leg->completed) << "member " << m;
            EXPECT_EQ(leg->bytes, cfg.bytes) << "member " << m;
        }
    }
}

TEST(Nat444, HolePunchAcrossTwoCgns) {
    // EIM home NATs behind EIM CGNs: the reflexive endpoint each peer
    // registers is reusable by the other, through both layers.
    auto a = member_profile("p1");
    auto b = member_profile("p2");
    CgnConfig cgn; // defaults: eim + hairpin on
    const auto r = harness::run_hole_punch_nat444(a, b, cgn, false);
    EXPECT_TRUE(r.registered);
    EXPECT_TRUE(r.success);
    // Each peer's reflexive address is its CGN's external, and the two
    // CGNs are distinct boxes.
    EXPECT_NE(r.reflexive_a.addr, r.reflexive_b.addr);
}

TEST(Nat444, HolePunchSameCgnRidesHairpin) {
    auto a = member_profile("p1");
    auto b = member_profile("p2");
    CgnConfig cgn;
    const auto r = harness::run_hole_punch_nat444(a, b, cgn, true);
    EXPECT_TRUE(r.registered);
    EXPECT_EQ(r.reflexive_a.addr, r.reflexive_b.addr); // shared external
    EXPECT_TRUE(r.success);

    // With hairpinning off the punch packets die at the shared external
    // address: same registration, no connectivity.
    cgn.hairpin = false;
    const auto r2 = harness::run_hole_punch_nat444(a, b, cgn, true);
    EXPECT_TRUE(r2.registered);
    EXPECT_FALSE(r2.success);
}

// --- CgnGateway frame path ------------------------------------------------

// A reply whose TTL expires at the CGN is a forwarding event only once
// the engine claims it, so its Time Exceeded must quote the datagram as
// it arrived: addressed to the external address and port, TTL 1.
TEST(Nat444, InboundTtlExpiryQuotesTheArrivedDatagram) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int i = tb.add_device_behind_cgn(member_profile("m1"), g);
    tb.start_and_wait();
    const auto& group = tb.cgn_group(g);

    net::Endpoint seen;
    std::optional<net::IcmpMessage> err;
    net::Ipv4Addr err_from;
    auto& echo = tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    echo.set_receive_handler([&](net::Endpoint src,
                                 std::span<const std::uint8_t>,
                                 const net::PacketView&) {
        seen = src;
        stack::UdpSocket::SendOptions opts;
        opts.ttl = 1; // the CGN is the first hop back
        echo.send_to(src, {{'r'}}, opts);
    });
    tb.server().set_icmp_observer(
        [&](const net::PacketView& outer, const net::IcmpMessage& msg) {
            if (!msg.is_error()) return;
            err = msg;
            err_from = outer.src();
        });
    int replies = 0;
    auto& sock = tb.client().udp_open(tb.slot(i).client_addr, 46000,
                                      tb.slot(i).client_if);
    sock.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t>,
                                 const net::PacketView&) { ++replies; });
    sock.send_to({tb.slot(i).server_addr, 7000}, {{'q'}});
    loop.run_for(std::chrono::milliseconds(100));

    EXPECT_EQ(replies, 0);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, net::IcmpType::TimeExceeded);
    EXPECT_EQ(err_from, group.external_addr);
    const auto quote = IcmpQuote::parse(err->payload);
    ASSERT_TRUE(quote.has_value());
    EXPECT_EQ(err->payload[8], 1); // the quoted TTL
    EXPECT_EQ(quote->src, tb.slot(i).server_addr);
    EXPECT_EQ(quote->dst, group.external_addr);
    EXPECT_EQ(quote->dst, seen.addr);
    ASSERT_GE(quote->l4.size(), 4u);
    EXPECT_EQ(quote->word(2), seen.port);
    EXPECT_TRUE(ip_header_checksum_ok(err->payload));
}

// Unsolicited WAN traffic to the external address falls through to the
// CGN's own stack. The engine looks at it exactly once: the WAN frame
// hook is the only place WAN traffic is translated.
TEST(Nat444, UnsolicitedInboundReachesTheCgnStackCountedOnce) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int i = tb.add_device_behind_cgn(member_profile("m1"), g);
    tb.start_and_wait();
    auto& group = tb.cgn_group(g);
    CgnEngine& engine = group.cgn->engine();

    // One outbound flow creates the member's block; a port at its far
    // end carries no binding.
    auto& sock = tb.client().udp_open(tb.slot(i).client_addr, 46000,
                                      tb.slot(i).client_if);
    sock.send_to({tb.slot(i).server_addr, 7000}, {{'q'}});
    loop.run_for(std::chrono::milliseconds(50));
    const auto block = engine.block_of(tb.slot(i).gw_wan_addr);
    ASSERT_TRUE(block.has_value());
    ASSERT_NE(engine.engine_for(tb.slot(i).gw_wan_addr), nullptr);
    const std::uint16_t port = block->end;

    int delivered = 0;
    auto& local = group.cgn->host().udp_open(net::Ipv4Addr::any(), port);
    local.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t>,
                                  const net::PacketView&) { ++delivered; });
    const auto before = engine.stats().dropped_no_binding;
    auto& probe = tb.server().udp_open(net::Ipv4Addr::any(), 7001);
    probe.send_to({group.external_addr, port}, {{'u'}});
    loop.run_for(std::chrono::milliseconds(50));

    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(engine.stats().dropped_no_binding, before + 1);
}

// Translated traffic never climbs the CGN's host stack: both directions
// of a TCP-2 transfer are rewritten on the NICs' frame hooks.
TEST(Nat444, CgnStackSeesNoTranslatedDatagram) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int m = tb.add_device_behind_cgn(devices::all_profiles()[0], g);
    tb.start_and_wait();
    auto& cgn = *tb.cgn_group(g).cgn;

    std::uint64_t observed = 0;
    cgn.host().set_ip_observer(
        [&](stack::Iface&, const net::PacketView& v,
            std::span<const std::uint8_t>) {
            if (v.protocol() == net::proto::kTcp) ++observed;
        });
    const auto out_before = cgn.engine().stats().translated_out;
    const auto in_before = cgn.engine().stats().translated_in;

    harness::ThroughputConfig cfg;
    cfg.bytes = 200'000;
    std::optional<harness::ThroughputResult> r;
    harness::measure_throughput(
        tb, m, cfg, [&r](harness::ThroughputResult res) { r = res; });
    for (int s = 0; s < 600 && !r; ++s) loop.run_for(std::chrono::seconds(1));
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->upload.completed);
    EXPECT_TRUE(r->download.completed);
    EXPECT_GT(cgn.engine().stats().translated_out, out_before + 100);
    EXPECT_GT(cgn.engine().stats().translated_in, in_before + 100);
    EXPECT_EQ(observed, 0u);
}

// A subscriber datagram in a broadcast-MAC frame is not addressed to the
// CGN's MAC, yet the access frame hook translates it like any other.
TEST(Nat444, BroadcastFramedDatagramIsTranslatedOnACopy) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int i = tb.add_device_behind_cgn(member_profile("m1"), g);
    tb.start_and_wait();
    auto& group = tb.cgn_group(g);

    std::vector<net::Endpoint> seen;
    auto& sink = tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    sink.set_receive_handler([&](net::Endpoint src,
                                 std::span<const std::uint8_t>,
                                 const net::PacketView&) {
        seen.push_back(src);
    });
    const auto before = group.cgn->engine().stats().translated_out;

    const net::Bytes dgram =
        udp_pkt(tb.slot(i).gw_wan_addr, 40000, tb.slot(i).server_addr, 7000)
            .serialize();
    sim::Frame frame(12, 0xff);
    frame[6] = 0x02; // a locally administered source MAC
    frame.push_back(0x08);
    frame.push_back(0x00);
    frame.insert(frame.end(), dgram.begin(), dgram.end());
    group.access_link->send(sim::Link::Side::B, std::move(frame));
    loop.run_for(std::chrono::milliseconds(50));

    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].addr, group.external_addr);
    EXPECT_EQ(group.cgn->engine().stats().translated_out, before + 1);
}

// The one emit rule: a translated frame leaves by the port its exit
// names. A subscriber frame for another access-network address is
// translated outbound, so it must leave by the WAN port; its route
// points back into the access network, and the frame is dropped there,
// as a home gateway drops a frame whose route leaves by the wrong port.
// Subscribers reach each other on-link, never through the CGN.
TEST(Nat444, AccessFrameRoutedBackToTheAccessPortIsDropped) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int i = tb.add_device_behind_cgn(member_profile("m1"), g);
    tb.start_and_wait();
    auto& group = tb.cgn_group(g);
    const auto access_out = group.access_link->frames_sent(sim::Link::Side::A);
    const auto uplink_out = group.wan_link->frames_sent(sim::Link::Side::A);
    const auto before = group.cgn->engine().stats().translated_out;

    const net::Ipv4Addr neighbour(100, 64, static_cast<std::uint8_t>(
                                               group.index), 77);
    const net::Bytes dgram =
        udp_pkt(tb.slot(i).gw_wan_addr, 40000, neighbour, 7000).serialize();
    const auto mac = group.cgn->host().nic().mac().octets();
    sim::Frame frame(mac.begin(), mac.end());
    frame.insert(frame.end(), {0x02, 0, 0, 0, 0, 0x42, 0x08, 0x00});
    frame.insert(frame.end(), dgram.begin(), dgram.end());
    group.access_link->send(sim::Link::Side::B, std::move(frame));
    loop.run_for(std::chrono::milliseconds(50));

    EXPECT_EQ(group.cgn->engine().stats().translated_out, before + 1);
    EXPECT_EQ(group.access_link->frames_sent(sim::Link::Side::A), access_out);
    EXPECT_EQ(group.wan_link->frames_sent(sim::Link::Side::A), uplink_out);
}

// A translated frame with no route at all is released with nothing on
// either wire. The ISP's lease names no router here, so the CGN holds no
// default route and an off-link destination has none.
TEST(Nat444, RoutelessTranslatedFrameLeavesNothingOnEitherWire) {
    sim::EventLoop loop;
    const auto rate = 100'000'000;
    const auto prop = std::chrono::microseconds(1);
    sim::Link uplink(loop, rate, prop);
    sim::Link access(loop, rate, prop);
    stack::Host isp(loop, "isp", net::MacAddr::from_index(1));
    stack::Host sub(loop, "sub", net::MacAddr::from_index(2));
    stack::Iface& isp_if = isp.add_iface();
    stack::Iface& sub_if = sub.add_iface();
    isp.nic().connect(uplink, sim::Link::Side::A);
    sub.nic().connect(access, sim::Link::Side::B);
    isp_if.configure(net::Ipv4Addr(10, 0, 0, 1), 24);
    isp.add_route(net::Ipv4Addr(10, 0, 0, 0), 24, isp_if);
    stack::DhcpServerConfig lease;
    lease.pool_base = net::Ipv4Addr(10, 0, 0, 10);
    lease.dns_server = net::Ipv4Addr(10, 0, 0, 1); // no router
    stack::DhcpServer dhcp(isp, isp_if, lease);

    CgnGateway cgn(loop, {});
    cgn.connect_wan(uplink, sim::Link::Side::B);
    cgn.connect_access(access, sim::Link::Side::A);
    bool ready = false;
    cgn.start([&ready](net::Ipv4Addr) { ready = true; });
    loop.run_for(std::chrono::seconds(10));
    ASSERT_TRUE(ready);

    const net::Ipv4Addr subscriber(100, 64, 0, 50);
    sub_if.configure(subscriber, 24);
    sub.add_route(net::Ipv4Addr(100, 64, 0, 0), 24, sub_if);
    const net::Ipv4Addr far(203, 0, 113, 9);
    const auto send = [&] {
        sub.send_raw(sub_if, udp_pkt(subscriber, 40000, far, 7000).serialize(),
                     cgn.access_addr());
        loop.run_for(std::chrono::milliseconds(50));
    };
    send(); // resolves the CGN's MAC first
    const auto access_out = access.frames_sent(sim::Link::Side::A);
    const auto uplink_out = uplink.frames_sent(sim::Link::Side::B);
    const auto before = cgn.engine().stats().translated_out;
    send();

    EXPECT_EQ(cgn.engine().stats().translated_out, before + 1);
    EXPECT_EQ(access.frames_sent(sim::Link::Side::A), access_out);
    EXPECT_EQ(uplink.frames_sent(sim::Link::Side::B), uplink_out);
}
