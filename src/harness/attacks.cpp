#include "harness/attacks.hpp"

#include <optional>

#include "net/udp.hpp"
#include "net/tcp_header.hpp"
#include "stack/udp_socket.hpp"

namespace gatekit::harness {

namespace {

using net::Ipv4Addr;

// Spoofed source addresses: TEST-NET-3 for the off-path WAN attacker and
// the blackholed remote the SYN-confusion victim talks to. Neither is
// routable inside the testbed, which is the point — every reply the
// gateway emits toward them dies at the test server's forward path.
const Ipv4Addr kOffPathAttacker{203, 0, 113, 66};
const Ipv4Addr kPhantomRemote{203, 0, 113, 77};

net::Bytes raw_udp(Ipv4Addr src, std::uint16_t sport, Ipv4Addr dst,
                   std::uint16_t dport) {
    net::Ipv4Packet p;
    p.h.protocol = net::proto::kUdp;
    p.h.src = src;
    p.h.dst = dst;
    net::UdpDatagram d;
    d.src_port = sport;
    d.dst_port = dport;
    d.payload = {0x5a};
    p.payload = d.serialize(src, dst);
    return p.serialize();
}

net::Bytes raw_tcp(Ipv4Addr src, std::uint16_t sport, Ipv4Addr dst,
                   std::uint16_t dport, bool syn, bool ack, bool rst) {
    net::Ipv4Packet p;
    p.h.protocol = net::proto::kTcp;
    p.h.src = src;
    p.h.dst = dst;
    net::TcpSegment seg;
    seg.src_port = sport;
    seg.dst_port = dport;
    seg.seq = 0x1000;
    seg.ack = ack ? 0x2000 : 0;
    seg.flags.syn = syn;
    seg.flags.ack = ack;
    seg.flags.rst = rst;
    p.payload = seg.serialize(src, dst);
    return p.serialize();
}

/// A structurally plausible RFC 792 quote of the datagram the victim's
/// NAT would have emitted, as an off-path attacker fabricates it: the
/// guessed external port is real information, the UDP length/checksum
/// are invented but sane, so only the rate-limit knob — never quote
/// validation — can stop a sweep of these.
net::Bytes synth_udp_quote(Ipv4Addr src, std::uint16_t sport, Ipv4Addr dst,
                           std::uint16_t dport) {
    net::Ipv4Packet q;
    q.h.protocol = net::proto::kUdp;
    q.h.src = src;
    q.h.dst = dst;
    q.h.ttl = 55;
    q.payload = {static_cast<std::uint8_t>(sport >> 8),
                 static_cast<std::uint8_t>(sport),
                 static_cast<std::uint8_t>(dport >> 8),
                 static_cast<std::uint8_t>(dport),
                 0x00, 0x0c,  // claimed UDP length 12
                 0xbe, 0xef}; // fabricated checksum
    return q.serialize();
}

/// Hand-rolled embedded quote whose header fields can lie (bogus IHL,
/// inconsistent total length, truncated transport bytes). Quote header
/// checksums are left invalid on purpose: no device verifies them.
net::Bytes hand_quote(std::uint8_t ver_ihl, std::uint16_t total,
                      Ipv4Addr src, Ipv4Addr dst, net::Bytes tail) {
    net::Bytes b(20, 0);
    b[0] = ver_ihl;
    b[2] = static_cast<std::uint8_t>(total >> 8);
    b[3] = static_cast<std::uint8_t>(total);
    b[5] = 1; // id
    b[8] = 55;
    b[9] = net::proto::kUdp;
    for (int i = 0; i < 4; ++i) {
        b[12 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(src.value() >> (24 - 8 * i));
        b[16 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(dst.value() >> (24 - 8 * i));
    }
    for (const std::uint8_t t : tail) b.push_back(t);
    return b;
}

void settle(Testbed& tb) {
    // Long enough to reset every per-second rate window and drain any
    // in-flight transients before the next attack arms its observers.
    tb.loop().run_for(std::chrono::seconds(2));
}

/// Arm the test server's IP observer to record the translated source
/// port of victim datagrams addressed to `dport`.
class ExtPortCapture {
public:
    ExtPortCapture(Testbed& tb, const Testbed::DeviceSlot& s,
                   std::uint16_t dport)
        : tb_(tb) {
        tb.server().set_ip_observer(
            [this, &s, dport](stack::Iface&, const net::PacketView& v,
                              std::span<const std::uint8_t>) {
                if (v.protocol() == net::proto::kUdp && v.has_l4() &&
                    v.src() == s.gw_wan_addr && v.dst_port() == dport)
                    port_ = v.src_port();
            });
    }
    ~ExtPortCapture() { tb_.server().set_ip_observer({}); }
    std::optional<std::uint16_t> port() const { return port_; }

private:
    Testbed& tb_;
    std::optional<std::uint16_t> port_;
};

/// Count ICMP errors that make it all the way to the victim host.
class ErrorCounter {
public:
    explicit ErrorCounter(Testbed& tb) : tb_(tb) {
        tb.client().set_icmp_observer(
            [this](const net::PacketView&, const net::IcmpMessage& m) {
                if (m.is_error()) ++count_;
            });
    }
    ~ErrorCounter() { tb_.client().set_icmp_observer({}); }
    std::uint64_t count() const { return count_; }

private:
    Testbed& tb_;
    std::uint64_t count_ = 0;
};

// --- attack 1: off-path ICMP error-triggered teardown -------------------

void attack_icmp_teardown(Testbed& tb, Testbed::DeviceSlot& s,
                          const AttackConfig& cfg, AttackReport& rep) {
    auto& loop = tb.loop();
    auto& out = rep.icmp_teardown;
    auto& victim = tb.client().udp_open(s.client_addr, 40001);
    auto& sink = tb.server().udp_open(s.server_addr, 7001);
    std::uint64_t victim_rx = 0;
    victim.set_receive_handler([&victim_rx](net::Endpoint,
                                            std::span<const std::uint8_t>,
                                            const net::PacketView&) {
        ++victim_rx;
    });

    std::optional<std::uint16_t> ext;
    {
        ExtPortCapture cap(tb, s, 7001);
        victim.send_to({s.server_addr, 7001}, {{0x01}});
        loop.run_for(std::chrono::milliseconds(200));
        ext = cap.port();
    }
    if (!ext) {
        rep.failures.push_back("icmp_teardown: victim flow did not translate");
        tb.client().udp_close(victim);
        tb.server().udp_close(sink);
        return;
    }
    const auto probe = [&] {
        tb.server().send_raw(
            *s.server_if,
            raw_udp(s.server_addr, 7001, s.gw_wan_addr, *ext),
            s.gw_wan_addr);
        loop.run_for(std::chrono::milliseconds(100));
    };
    probe();
    if (victim_rx == 0)
        rep.failures.push_back(
            "icmp_teardown: inbound baseline never reached the victim");

    // The sweep: Port-Unreachable errors quoting the victim's guessed
    // tuple, ascending across the port space around the real external
    // port. The real port sits at index sweep_width/2, past a hardened
    // device's per-second budget.
    ErrorCounter injected(tb);
    const auto st0 = s.gw->nat().stats();
    const int half = cfg.sweep_width / 2;
    for (int i = -half; i < cfg.sweep_width - half; ++i) {
        const auto p = static_cast<std::uint16_t>(*ext + i);
        const auto err = net::IcmpMessage::make_error(
            net::IcmpType::DestUnreachable, net::icmp_code::kPortUnreachable,
            0, synth_udp_quote(s.gw_wan_addr, p, s.server_addr, 7001));
        tb.server().send_icmp(kOffPathAttacker, s.gw_wan_addr, err);
        if ((i + half) % 32 == 31) loop.run_for(std::chrono::milliseconds(1));
    }
    loop.run_for(std::chrono::milliseconds(200));

    const std::uint64_t rx_before = victim_rx;
    probe();
    const bool alive = victim_rx > rx_before;
    const auto st1 = s.gw->nat().stats();
    out.detail = injected.count();
    if (!alive) {
        out.verdict = "torn-down";
        out.vulnerable = true;
    } else if (injected.count() > 0) {
        out.verdict = "error-injected";
        out.vulnerable = true;
    } else if (st1.icmp_rate_limited > st0.icmp_rate_limited) {
        out.verdict = "rate-limited";
    } else {
        out.verdict = "not-translated";
    }
    tb.client().udp_close(victim);
    tb.server().udp_close(sink);
}

// --- attack 3: inbound-SYN state confusion ------------------------------

void attack_syn_confusion(Testbed& tb, Testbed::DeviceSlot& s,
                          const AttackConfig& cfg, AttackReport& rep) {
    auto& loop = tb.loop();
    auto& out = rep.syn_confusion;
    const std::uint16_t vport = 42000, rport = 9999;
    const auto gw_lan = s.gw->lan_addr();

    // Victim half-open handshake: raw SYNs toward a blackholed remote
    // leave a transitory binding (packets_out = 2, never a reply).
    for (int i = 0; i < 2; ++i) {
        tb.client().send_raw(
            *s.client_if,
            raw_tcp(s.client_addr, vport, kPhantomRemote, rport,
                    /*syn=*/true, /*ack=*/false, /*rst=*/false),
            gw_lan);
        loop.run_for(std::chrono::milliseconds(20));
    }

    // Oracle: locate the external port of the half-open binding.
    auto& table = s.gw->nat().tcp_table();
    const auto& prof = s.gw->profile();
    const auto matches = [&](std::uint16_t p) {
        gateway::Binding* b = table.find_by_external(p);
        return b != nullptr &&
               b->key.internal == net::Endpoint{s.client_addr, vport} &&
               b->key.remote == net::Endpoint{kPhantomRemote, rport};
    };
    std::optional<std::uint16_t> ext;
    if (matches(vport)) {
        ext = vport;
    } else {
        for (std::uint32_t p = prof.pool_begin; p <= prof.pool_end; ++p) {
            if (matches(static_cast<std::uint16_t>(p))) {
                ext = static_cast<std::uint16_t>(p);
                break;
            }
        }
    }
    if (!ext) {
        rep.failures.push_back("syn_confusion: no transitory binding");
        return;
    }
    const auto binding = [&] {
        return table.find_inbound(*ext, {kPhantomRemote, rport});
    };
    const auto expires0 = binding()->expires_at;
    const auto st0 = s.gw->nat().stats();

    // Three spoofed sweeps around the external port, one flag shape per
    // round: plain SYNs, bare ACKs, RSTs. On a Forward-policy device the
    // on-port segment crosses into the LAN, where the victim's stack —
    // which holds no socket for the half-open probe flow — answers with
    // a RST that destroys its own NAT binding: the attacker needs only
    // the SYN round to erase the victim's state. The later rounds matter
    // for devices that survive the earlier ones.
    const auto sweep = [&](bool syn, bool ack, bool rst) {
        for (int i = -cfg.syn_halfwidth; i <= cfg.syn_halfwidth; ++i) {
            const auto p = static_cast<std::uint16_t>(*ext + i);
            tb.server().send_raw(
                *s.server_if,
                raw_tcp(kPhantomRemote, rport, s.gw_wan_addr, p, syn, ack,
                        rst),
                s.gw_wan_addr);
        }
        loop.run_for(std::chrono::milliseconds(50));
    };
    bool refreshed = false;
    const char* torn_by = nullptr;
    sweep(true, false, false);
    if (gateway::Binding* b1 = binding(); b1 == nullptr) {
        torn_by = "syn-torn-down";
    } else {
        refreshed = b1->expires_at > expires0;
        sweep(false, true, false);
        if (gateway::Binding* b2 = binding(); b2 == nullptr) {
            torn_by = "ack-torn-down";
        } else if (b2->established) {
            torn_by = "ack-poisoned";
        } else {
            sweep(false, false, true);
            if (binding() == nullptr) torn_by = "rst-teardown";
        }
    }

    const auto st1 = s.gw->nat().stats();
    out.detail = (st1.wan_syn_dropped + st1.wan_syn_tarpitted +
                  st1.wan_stray_dropped) -
                 (st0.wan_syn_dropped + st0.wan_syn_tarpitted +
                  st0.wan_stray_dropped);
    if (torn_by != nullptr) {
        out.verdict = torn_by;
        out.vulnerable = true;
    } else if (refreshed) {
        out.verdict = "syn-refresh";
        out.vulnerable = true;
    } else {
        out.verdict = "safe";
    }
}

// --- attack 4: malformed / truncated embedded-quote abuse ---------------

void attack_quote_abuse(Testbed& tb, Testbed::DeviceSlot& s,
                        AttackReport& rep) {
    auto& loop = tb.loop();
    auto& out = rep.quote_abuse;
    auto& victim = tb.client().udp_open(s.client_addr, 43000);
    auto& sink = tb.server().udp_open(s.server_addr, 7002);

    std::optional<std::uint16_t> ext;
    {
        ExtPortCapture cap(tb, s, 7002);
        victim.send_to({s.server_addr, 7002}, {{0x02}});
        loop.run_for(std::chrono::milliseconds(200));
        ext = cap.port();
    }
    if (!ext) {
        rep.failures.push_back("quote_abuse: victim flow did not translate");
        tb.client().udp_close(victim);
        tb.server().udp_close(sink);
        return;
    }

    const auto e = *ext;
    const auto hi = static_cast<std::uint8_t>(e >> 8);
    const auto lo = static_cast<std::uint8_t>(e);
    // Four hostile quotes, all naming the victim's real tuple (the
    // attacker got lucky — this attack tests the parser, not the guess):
    // header-only with a lying total length; a 4-byte transport stub; a
    // bogus IHL larger than the quote; a full quote whose embedded UDP
    // length field is impossible.
    const net::Bytes quotes[] = {
        hand_quote(0x45, 28, s.gw_wan_addr, s.server_addr, {}),
        hand_quote(0x45, 24, s.gw_wan_addr, s.server_addr,
                   {hi, lo, 0x1b, 0x5a}),
        hand_quote(0x4f, 28, s.gw_wan_addr, s.server_addr,
                   {hi, lo, 0x1b, 0x5a, 0x00, 0x0c, 0xbe, 0xef}),
        hand_quote(0x45, 28, s.gw_wan_addr, s.server_addr,
                   {hi, lo, 0x1b, 0x5a, 0x00, 0x04, 0xbe, 0xef}),
    };
    ErrorCounter relayed(tb);
    const auto st0 = s.gw->nat().stats();
    for (const auto& q : quotes) {
        net::IcmpMessage m;
        m.type = net::IcmpType::DestUnreachable;
        m.code = net::icmp_code::kPortUnreachable;
        m.payload = q;
        tb.server().send_icmp(kOffPathAttacker, s.gw_wan_addr, m);
        loop.run_for(std::chrono::milliseconds(20));
    }
    loop.run_for(std::chrono::milliseconds(100));

    const auto st1 = s.gw->nat().stats();
    out.detail = relayed.count();
    if (relayed.count() > 0) {
        out.verdict = "relays-malformed";
        out.vulnerable = true;
    } else if (st1.icmp_quote_rejected > st0.icmp_quote_rejected) {
        out.verdict = "quote-validated";
    } else {
        out.verdict = "immune";
    }
    tb.client().udp_close(victim);
    tb.server().udp_close(sink);
}

// --- attack 2: targeted port exhaustion ---------------------------------

void attack_port_exhaustion(Testbed& tb, Testbed::DeviceSlot& s,
                            const AttackConfig& cfg, AttackReport& rep) {
    auto& loop = tb.loop();
    auto& out = rep.port_exhaustion;
    auto& nat = s.gw->nat();
    const auto& prof = s.gw->profile();
    const auto cap = nat.udp_table().capacity_limit();
    const auto gw_lan = s.gw->lan_addr();
    // The coerced LAN host (ReDAN's malicious-JS model maps here to a
    // compromised device beside the victim): a spoofed neighbor address
    // injected through the client's own LAN interface.
    const Ipv4Addr attacker{(s.client_addr.value() & 0xffffff00u) | 0xfau};

    // Swallow all attack and victim traffic server-side so nothing
    // generates on-path ICMP backwash.
    auto& sink_a = tb.server().udp_open(s.server_addr, 9000);
    auto& sink_1 = tb.server().udp_open(s.server_addr, 9001);
    auto& sink_2 = tb.server().udp_open(s.server_addr, 9002);

    std::size_t sent = 0;
    std::uint16_t sport = prof.pool_begin;
    const auto attack_flow = [&](std::uint16_t sp) {
        tb.client().send_raw(*s.client_if,
                             raw_udp(attacker, sp, s.server_addr, 9000),
                             gw_lan);
        if (++sent % 64 == 0) loop.run_for(std::chrono::milliseconds(1));
    };

    // Phase A: race the pool, then squat the victim's source port. The
    // squat comes after steal_prefix pool flows, so a hardened per-host
    // budget has already cut the attacker off by the time it lands.
    for (int i = 0; i < cfg.steal_prefix; ++i) attack_flow(sport++);
    loop.run_for(std::chrono::milliseconds(20));
    attack_flow(41001);
    loop.run_for(std::chrono::milliseconds(50));

    auto& v1 = tb.client().udp_open(s.client_addr, 41001);
    std::optional<std::uint16_t> ext1;
    {
        ExtPortCapture cap1(tb, s, 9001);
        v1.send_to({s.server_addr, 9001}, {{0x01}});
        loop.run_for(std::chrono::milliseconds(100));
        ext1 = cap1.port();
    }
    // A changed mapping only means theft on a port-preserving device;
    // Sequential devices never promise the source port back.
    const bool preserve =
        prof.port_allocation == gateway::PortAllocation::PreserveSourcePort;
    const bool stolen = preserve && ext1.has_value() && *ext1 != 41001;

    // Phase B: keep racing until the table (or the attacker's budget) is
    // exhausted, then open one more victim flow.
    const std::size_t target = cap + static_cast<std::size_t>(
                                         cfg.exhaust_margin);
    while (sent < target) attack_flow(sport++);
    loop.run_for(std::chrono::milliseconds(200));

    auto& v2 = tb.client().udp_open(s.client_addr, 41002);
    std::optional<std::uint16_t> ext2;
    {
        ExtPortCapture cap2(tb, s, 9002);
        v2.send_to({s.server_addr, 9002}, {{0x02}});
        loop.run_for(std::chrono::milliseconds(100));
        ext2 = cap2.port();
    }
    const bool exhausted = !ext2.has_value();

    out.detail = nat.udp_table().host_budget_refusals();
    if (stolen && exhausted) {
        out.verdict = "stolen+exhausted";
    } else if (exhausted) {
        out.verdict = "pool-exhausted";
    } else if (stolen) {
        out.verdict = "mapping-stolen";
    } else {
        out.verdict = "safe";
    }
    out.vulnerable = stolen || exhausted;

    tb.client().udp_close(v1);
    tb.client().udp_close(v2);
    tb.server().udp_close(sink_a);
    tb.server().udp_close(sink_1);
    tb.server().udp_close(sink_2);
}

} // namespace

AttackReport run_attacks(Testbed& tb, int slot, const AttackConfig& cfg) {
    AttackReport rep;
    auto& s = tb.slot(slot);
    rep.device = Testbed::device_label(s);
    if (!s.ready) {
        rep.failures.push_back("slot not ready");
        return rep;
    }
    // Floods run last: the exhaustion attack deliberately leaves the
    // UDP table saturated. The settle gaps reset per-second rate-limit
    // windows between attacks.
    attack_icmp_teardown(tb, s, cfg, rep);
    settle(tb);
    attack_syn_confusion(tb, s, cfg, rep);
    settle(tb);
    attack_quote_abuse(tb, s, rep);
    settle(tb);
    attack_port_exhaustion(tb, s, cfg, rep);
    return rep;
}

} // namespace gatekit::harness
