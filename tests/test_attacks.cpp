// Hardening-knob and embedded-ICMP-parsing tests for the off-path
// attack battery (DESIGN.md section 15): per-knob NAT enforcement,
// validate()/profile_identity() plumbing, fingerprint stability (the
// knobs are inert by default), hardened-population sampling, and the
// two parsing regressions — fragment quotes and bogus TimeExceeded
// codes — that used to let attacker-shaped errors through.
#include <gtest/gtest.h>

#include "devices/population.hpp"
#include "devices/profiles.hpp"
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

DeviceProfile base_profile() {
    DeviceProfile p;
    p.tag = "attack-unit";
    p.udp.initial = std::chrono::seconds(300);
    return p;
}

net::Ipv4Packet udp_packet(std::uint16_t sport, std::uint16_t dport) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = kClient;
    pkt.h.dst = kServer;
    net::UdpDatagram d;
    d.src_port = sport;
    d.dst_port = dport;
    d.payload = {1};
    pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);
    return pkt;
}

/// The quoted datagram of a well-formed error about the translated flow
/// ext_port -> kServer:remote_port, as the remote host would quote it.
net::Bytes well_formed_quote(std::uint16_t ext_port,
                             std::uint16_t remote_port) {
    net::Ipv4Packet q;
    q.h.protocol = net::proto::kUdp;
    q.h.src = kWan;
    q.h.dst = kServer;
    q.h.ttl = 55;
    q.payload = {static_cast<std::uint8_t>(ext_port >> 8),
                 static_cast<std::uint8_t>(ext_port),
                 static_cast<std::uint8_t>(remote_port >> 8),
                 static_cast<std::uint8_t>(remote_port),
                 0x00, 0x10,  // embedded UDP length 16 (plausible)
                 0xbe, 0xef}; // nonzero embedded checksum
    return q.serialize();
}

net::Ipv4Packet error_packet(net::IcmpMessage msg) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kIcmp;
    pkt.h.src = kServer;
    pkt.h.dst = kWan;
    pkt.payload = msg.serialize();
    return pkt;
}

net::Ipv4Packet port_unreachable(net::Bytes quote) {
    return error_packet(net::IcmpMessage::make_error(
        net::IcmpType::DestUnreachable, net::icmp_code::kPortUnreachable, 0,
        quote));
}

} // namespace

// --- satellite regressions: embedded-ICMP parsing ----------------------

// A quote whose embedded header marks a non-first fragment carries
// mid-stream payload where the transport header would sit; reading
// those attacker-chosen bytes as ports used to alias live bindings.
TEST(AttackParsing, FragmentQuoteIsDropped) {
    sim::EventLoop loop;
    auto profile = base_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);
    ASSERT_TRUE(outbound_copy(nat, udp_packet(40000, 7000)).has_value());

    net::Ipv4Packet q;
    q.h.protocol = net::proto::kUdp;
    q.h.src = kWan;
    q.h.dst = kServer;
    q.h.frag_offset = 64; // mid-stream fragment, "ports" are payload
    q.payload = {0x9c, 0x40, 0x1b, 0x58, 0x00, 0x10, 0xbe, 0xef};

    bool handled = false;
    const auto out =
        inbound_copy(nat, port_unreachable(q.serialize()), handled);
    EXPECT_FALSE(out.has_value());
    EXPECT_TRUE(handled); // consumed, not passed to the gateway stack
    EXPECT_EQ(nat.stats().icmp_dropped, 1u);
    EXPECT_EQ(nat.stats().icmp_translated, 0u);
}

// TimeExceeded only defines codes 0 and 1; anything else used to be
// lumped in with TtlExceeded and ride that kind's translation posture.
TEST(AttackParsing, BogusTimeExceededCodeDoesNotClassify) {
    sim::EventLoop loop;
    auto profile = base_profile();
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);
    ASSERT_TRUE(outbound_copy(nat, udp_packet(40000, 7000)).has_value());

    const auto quote = well_formed_quote(40000, 7000);
    const auto bogus = error_packet(net::IcmpMessage::make_error(
        net::IcmpType::TimeExceeded, 7, 0, quote));
    bool handled = false;
    EXPECT_FALSE(inbound_copy(nat, bogus, handled).has_value());
    EXPECT_FALSE(handled); // unclassifiable: never reaches the binding

    const auto valid = error_packet(net::IcmpMessage::make_error(
        net::IcmpType::TimeExceeded, net::icmp_code::kTtlExceeded, 0, quote));
    handled = false;
    inbound_copy(nat, valid, handled);
    EXPECT_TRUE(handled); // same quote, defined code: attributed
}

// --- knob enforcement in the NAT engine --------------------------------

TEST(AttackKnobs, IcmpErrorRateLimitWindow) {
    sim::EventLoop loop;
    auto profile = base_profile();
    profile.icmp_error_rate_limit = 2;
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);
    ASSERT_TRUE(outbound_copy(nat, udp_packet(40000, 7000)).has_value());

    const auto err = port_unreachable(well_formed_quote(40000, 7000));
    for (int i = 0; i < 5; ++i) {
        bool handled = false;
        inbound_copy(nat, err, handled);
        EXPECT_TRUE(handled);
    }
    EXPECT_EQ(nat.stats().icmp_rate_limited, 3u);

    // A fresh one-second window re-arms the budget.
    loop.run_until(loop.now() + std::chrono::milliseconds(1100));
    bool handled = false;
    inbound_copy(nat, err, handled);
    EXPECT_EQ(nat.stats().icmp_rate_limited, 3u);
}

TEST(AttackKnobs, ValidateEmbeddedBindingRejectsStubQuote) {
    sim::EventLoop loop;
    auto profile = base_profile();
    profile.validate_embedded_binding = true;
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);
    ASSERT_TRUE(outbound_copy(nat, udp_packet(40000, 7000)).has_value());

    // Four transport bytes: enough for the lax port-pair lookup, too
    // short to be a real RFC 792 quote.
    net::Ipv4Packet stub;
    stub.h.protocol = net::proto::kUdp;
    stub.h.src = kWan;
    stub.h.dst = kServer;
    stub.payload = {0x9c, 0x40, 0x1b, 0x58};
    bool handled = false;
    EXPECT_FALSE(inbound_copy(nat, port_unreachable(stub.serialize()), handled)
                     .has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(nat.stats().icmp_quote_rejected, 1u);

    // A full 8-byte quote with a sane length still gets through.
    handled = false;
    inbound_copy(nat, port_unreachable(well_formed_quote(40000, 7000)),
                 handled);
    EXPECT_TRUE(handled);
    EXPECT_EQ(nat.stats().icmp_quote_rejected, 1u);
}

TEST(AttackKnobs, WanSynPolicyDropTarpitAndStrictStrays) {
    sim::EventLoop loop;
    auto profile = base_profile();
    profile.wan_syn_policy = WanSynPolicy::Drop;
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    const auto tcp_in = [&](std::uint16_t dst_port, bool syn, bool ack) {
        net::Ipv4Packet pkt;
        pkt.h.protocol = net::proto::kTcp;
        pkt.h.src = kServer;
        pkt.h.dst = kWan;
        net::TcpSegment seg;
        seg.src_port = 80;
        seg.dst_port = dst_port;
        seg.flags.syn = syn;
        seg.flags.ack = ack;
        pkt.payload = seg.serialize(pkt.h.src, pkt.h.dst);
        return pkt;
    };

    // Unsolicited SYN: swallowed before any binding state is touched.
    bool handled = false;
    EXPECT_FALSE(
        inbound_copy(nat, tcp_in(41000, true, false), handled).has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(nat.stats().wan_syn_dropped, 1u);

    // Open a handshake outbound, then a stray ACK before the SYN-ACK.
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

    handled = false;
    EXPECT_FALSE(
        inbound_copy(nat, tcp_in(41000, false, true), handled).has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(nat.stats().wan_stray_dropped, 1u);

    // The legitimate SYN-ACK is accepted and unlocks the binding.
    handled = false;
    EXPECT_TRUE(
        inbound_copy(nat, tcp_in(41000, true, true), handled).has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(nat.stats().wan_stray_dropped, 1u);

    // Tarpit counts separately.
    auto tarpit_profile = base_profile();
    tarpit_profile.wan_syn_policy = WanSynPolicy::Tarpit;
    NatEngine tarpit(loop, tarpit_profile);
    tarpit.set_wan_addr(kWan);
    handled = false;
    EXPECT_FALSE(
        inbound_copy(tarpit, tcp_in(42000, true, false), handled).has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(tarpit.stats().wan_syn_tarpitted, 1u);
}

TEST(AttackKnobs, PerHostBindingBudgetRefusesAndReleases) {
    sim::EventLoop loop;
    auto profile = base_profile();
    profile.per_host_binding_budget = 3;
    NatEngine nat(loop, profile);
    nat.set_wan_addr(kWan);

    for (std::uint16_t i = 0; i < 5; ++i)
        outbound_copy(
            nat, udp_packet(static_cast<std::uint16_t>(40000 + i), 7000));
    EXPECT_EQ(nat.udp_table().size(), 3u);
    EXPECT_EQ(nat.udp_table().host_budget_refusals(), 2u);

    // Another host has its own budget.
    auto other = udp_packet(40000, 7000);
    other.h.src = net::Ipv4Addr(192, 168, 1, 101);
    {
        net::UdpDatagram d;
        d.src_port = 40000;
        d.dst_port = 7000;
        d.payload = {1};
        other.payload = d.serialize(other.h.src, other.h.dst);
    }
    EXPECT_TRUE(outbound_copy(nat, other).has_value());

    // Releasing a binding frees budget for the refused host.
    Binding* b = nat.udp_table().find_inbound(40000, {kServer, 7000});
    ASSERT_NE(b, nullptr);
    nat.udp_table().remove(b->key);
    EXPECT_TRUE(outbound_copy(nat, udp_packet(40005, 7000)).has_value());
    EXPECT_EQ(nat.udp_table().host_budget_refusals(), 2u);
}

// --- profile plumbing: validate(), identity, fingerprint stability -----

TEST(AttackProfile, ValidateRejectsBadKnobValues) {
    auto p = base_profile();
    EXPECT_EQ(p.validate(), "");

    p.icmp_error_rate_limit = -1;
    EXPECT_NE(p.validate(), "");
    p.icmp_error_rate_limit = 0;

    p.per_host_binding_budget = 0;
    EXPECT_NE(p.validate(), "");
    p.per_host_binding_budget = -7;
    EXPECT_NE(p.validate(), "");
    p.per_host_binding_budget = -1; // sentinel: disabled
    EXPECT_EQ(p.validate(), "");
    p.per_host_binding_budget = 12;
    EXPECT_EQ(p.validate(), "");
}

TEST(AttackProfile, IdentityEmitsHardSectionOnlyWhenNonDefault) {
    const auto p = base_profile();
    const auto base_id = profile_identity(p);
    EXPECT_EQ(base_id.find("|hard:"), std::string::npos);

    for (int knob = 0; knob < 5; ++knob) {
        auto q = p;
        switch (knob) {
        case 0: q.icmp_error_teardown = true; break;
        case 1: q.validate_embedded_binding = true; break;
        case 2: q.icmp_error_rate_limit = 32; break;
        case 3: q.wan_syn_policy = WanSynPolicy::Drop; break;
        case 4: q.per_host_binding_budget = 64; break;
        }
        EXPECT_NE(profile_identity(q).find("|hard:"), std::string::npos)
            << "knob " << knob;
        EXPECT_NE(profile_identity(q), base_id) << "knob " << knob;
    }
}

// The knobs ship inert: every calibrated profile's identity (and thus
// every campaign fingerprint and journal) is unchanged by this PR.
TEST(AttackProfile, CalibratedFingerprintsUnaffectedByHardeningKnobs) {
    for (const auto& p : devices::all_profiles()) {
        EXPECT_FALSE(p.icmp_error_teardown) << p.tag;
        EXPECT_FALSE(p.validate_embedded_binding) << p.tag;
        EXPECT_EQ(p.icmp_error_rate_limit, 0) << p.tag;
        EXPECT_EQ(p.wan_syn_policy, WanSynPolicy::Forward) << p.tag;
        EXPECT_EQ(p.per_host_binding_budget, -1) << p.tag;
        EXPECT_EQ(profile_identity(p).find("|hard:"), std::string::npos)
            << p.tag;
    }
}

// --- population: hardened sampling -------------------------------------

TEST(AttackPopulation, HardenedSamplingIsDeterministic) {
    devices::PopulationSpec spec;
    spec.count = 50;
    spec.hardening = true;
    const auto a = devices::sample_roster(spec);
    const auto b = devices::sample_roster(spec);
    ASSERT_EQ(a.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(profile_identity(a[i]), profile_identity(b[i])) << i;
}

TEST(AttackPopulation, HardenedKnobsInRangeAndValid) {
    devices::PopulationSpec spec;
    spec.count = 200;
    spec.hardening = true;
    bool saw_drop = false, saw_tarpit = false;
    for (const auto& p : devices::sample_roster(spec)) {
        EXPECT_EQ(p.validate(), "") << p.tag;
        EXPECT_TRUE(p.validate_embedded_binding) << p.tag;
        // Strictly below the battery's sweep half-width (48), so the
        // hardened posture always starves the error sweep.
        EXPECT_GE(p.icmp_error_rate_limit, 16) << p.tag;
        EXPECT_LT(p.icmp_error_rate_limit, 48) << p.tag;
        EXPECT_GE(p.per_host_binding_budget, 32) << p.tag;
        EXPECT_LE(p.per_host_binding_budget, 64) << p.tag;
        EXPECT_NE(p.wan_syn_policy, WanSynPolicy::Forward) << p.tag;
        saw_drop = saw_drop || p.wan_syn_policy == WanSynPolicy::Drop;
        saw_tarpit = saw_tarpit || p.wan_syn_policy == WanSynPolicy::Tarpit;
    }
    EXPECT_TRUE(saw_drop);
    EXPECT_TRUE(saw_tarpit);
}

// Hardening draws from an independent salted stream: resetting the four
// knobs recovers the default sample bit-for-bit, i.e. the behavioral
// population is untouched.
TEST(AttackPopulation, HardeningLeavesBehavioralSampleUnchanged) {
    devices::PopulationSpec spec;
    spec.count = 50;
    const auto plain = devices::sample_roster(spec);
    spec.hardening = true;
    const auto hard = devices::sample_roster(spec);
    ASSERT_EQ(plain.size(), hard.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        auto stripped = hard[i];
        stripped.icmp_error_rate_limit = 0;
        stripped.validate_embedded_binding = false;
        stripped.wan_syn_policy = WanSynPolicy::Forward;
        stripped.per_host_binding_budget = -1;
        EXPECT_EQ(profile_identity(stripped), profile_identity(plain[i]))
            << i;
    }
}
