// Golden translation digests. A seeded, mixed packet workload runs
// through every calibrated profile twice — over the wire (a HomeGateway
// on a Testbed, LAN + WAN captures with timestamps) and engine-direct
// (NatEngine's packet API) — and through CgnEngine in block and
// shared-pool modes × EIM/EDM. Each leg folds everything observable
// (translated bytes, verdicts, drop counters, wire timing) into one
// FNV-1a digest, and the committed digests pin the translator's
// behaviour across refactors of its internals.
//
// The mix: UDP and TCP with and without a Record Route option; TTL 1, 2
// and 64; SYN/FIN/RST sequences; inbound ICMP errors quoting the full
// datagram, the RFC 792 8-byte prefix, or the bare IP header; ICMP
// echo; hairpin; SCTP and DCCP; unsolicited inbound traffic.
//
// A digest that moves means observable behaviour moved. To regenerate
// after a deliberate behaviour change, run with GATEKIT_GOLDEN_PRINT=1,
// paste the printed tables below, and say why in the commit message.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <tuple>

#include "devices/profiles.hpp"
#include "gateway/cgn.hpp"
#include "gateway/nat_engine.hpp"
#include "harness/testbed.hpp"
#include "net/dccp.hpp"
#include "net/icmp.hpp"
#include "net/sctp.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"

using namespace gatekit;
using gateway::FlowKey;

namespace {

// --- digests ----------------------------------------------------------------

struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void byte(std::uint8_t b) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    void bytes(std::span<const std::uint8_t> s) {
        u64(s.size());
        for (const auto b : s) byte(b);
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
};

/// splitmix64: the mix must not depend on the standard library's
/// distribution implementations.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::uint32_t below(std::uint32_t n) {
        return static_cast<std::uint32_t>(next() % n);
    }
    bool chance(std::uint32_t percent) { return below(100) < percent; }

private:
    std::uint64_t s_;
};

// --- packet builders --------------------------------------------------------

/// The IP-level knobs the mix varies per packet.
struct Hdr {
    std::uint8_t ttl = 64;
    net::Bytes options;
    std::uint16_t id = 0;
};

Hdr random_hdr(Rng& rng) {
    Hdr h;
    const auto t = rng.below(100);
    h.ttl = t < 8 ? 1 : t < 20 ? 2 : 64;
    const auto o = rng.below(100);
    if (o < 20) {
        h.options = net::Ipv4Packet::make_record_route_option(
            1 + static_cast<int>(rng.below(3)));
        // Some routes arrive already full: nothing left to stamp.
        if (rng.chance(25)) h.options[2] = static_cast<std::uint8_t>(
                                h.options[1] + 1);
    } else if (o < 25) {
        h.options = {0x01, 0x01, 0x01, 0x00}; // NOP NOP NOP EOL
    }
    h.id = static_cast<std::uint16_t>(rng.next());
    return h;
}

net::Bytes ip(const Hdr& h, std::uint8_t proto, net::Ipv4Addr src,
              net::Ipv4Addr dst, net::Bytes payload) {
    net::Ipv4Packet p;
    p.h.protocol = proto;
    p.h.src = src;
    p.h.dst = dst;
    p.h.ttl = h.ttl;
    p.h.id = h.id;
    p.h.options = h.options;
    p.payload = std::move(payload);
    return p.serialize();
}

net::Bytes filler(Rng& rng) {
    const auto k = rng.below(100);
    const std::size_t len = k < 30 ? 0 : k < 90 ? rng.below(64) : 900;
    net::Bytes b(len);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    return b;
}

net::Bytes udp(const Hdr& h, net::Endpoint src, net::Endpoint dst,
               net::Bytes payload) {
    net::UdpDatagram d;
    d.src_port = src.port;
    d.dst_port = dst.port;
    d.payload = std::move(payload);
    return ip(h, net::proto::kUdp, src.addr, dst.addr,
              d.serialize(src.addr, dst.addr));
}

net::Bytes tcp(const Hdr& h, net::Endpoint src, net::Endpoint dst,
               net::TcpFlags flags, std::uint32_t seq, std::uint32_t ack,
               net::Bytes payload) {
    net::TcpSegment s;
    s.src_port = src.port;
    s.dst_port = dst.port;
    s.seq = seq;
    s.ack = ack;
    s.flags = flags;
    if (flags.syn) s.add_mss_option(1460);
    s.payload = std::move(payload);
    return ip(h, net::proto::kTcp, src.addr, dst.addr,
              s.serialize(src.addr, dst.addr));
}

net::TcpFlags flags_of(bool syn, bool ack, bool fin, bool rst) {
    net::TcpFlags f;
    f.syn = syn;
    f.ack = ack;
    f.fin = fin;
    f.rst = rst;
    return f;
}

net::Bytes echo(const Hdr& h, net::Ipv4Addr src, net::Ipv4Addr dst,
                bool reply, std::uint16_t id, std::uint16_t seq) {
    return ip(h, net::proto::kIcmp, src, dst,
              net::IcmpMessage::make_echo(reply, id, seq, {0xab, 0xcd})
                  .serialize());
}

/// An ICMP error from `src` quoting `original` in one of three styles:
/// the whole datagram, the RFC 792 header + 8 bytes, or the bare header.
net::Bytes icmp_error(const Hdr& h, net::Ipv4Addr src, net::Ipv4Addr dst,
                      const net::Bytes& original, Rng& rng) {
    static constexpr std::pair<net::IcmpType, std::uint8_t> kinds[] = {
        {net::IcmpType::DestUnreachable, net::icmp_code::kPortUnreachable},
        {net::IcmpType::DestUnreachable, net::icmp_code::kHostUnreachable},
        {net::IcmpType::DestUnreachable, net::icmp_code::kNetUnreachable},
        {net::IcmpType::DestUnreachable, net::icmp_code::kFragNeeded},
        {net::IcmpType::TimeExceeded, net::icmp_code::kTtlExceeded},
        {net::IcmpType::SourceQuench, 0},
        {net::IcmpType::ParamProblem, 0},
    };
    const auto& [type, code] = kinds[rng.below(std::size(kinds))];
    auto msg = net::IcmpMessage::make_error(type, code, 0, original);
    const auto style = rng.below(3);
    if (style == 0) msg.payload = original;                       // full
    if (style == 2) msg.payload.resize((original[0] & 0xf) * 4u); // header
    return ip(h, net::proto::kIcmp, src, dst, msg.serialize());
}

// --- the mix ----------------------------------------------------------------

/// Whatever carries the mix: a wire testbed or an engine called directly.
class Bed {
public:
    virtual ~Bed() = default;
    /// A datagram arriving from the inside (LAN / access network).
    virtual void lan(const net::Bytes& datagram) = 0;
    /// A datagram arriving from the outside, toward the external address.
    virtual void wan(const net::Bytes& datagram) = 0;
    virtual void wait(sim::Duration d) = 0;
    /// The external port the translator gave `key`, if it holds a binding.
    virtual std::optional<std::uint16_t> external_port(const FlowKey& key) = 0;

    std::vector<net::Ipv4Addr> clients;
    std::vector<net::Ipv4Addr> remotes;
    net::Ipv4Addr external;
};

class Mix {
public:
    Mix(Bed& d, std::uint64_t seed) : d_(d), rng_(seed) {}

    void run(int flows) {
        for (int f = 0; f < flows; ++f) {
            const net::Endpoint in{d_.clients[rng_.below(
                                       static_cast<std::uint32_t>(
                                           d_.clients.size()))],
                                   static_cast<std::uint16_t>(
                                       30000 + rng_.below(20000))};
            const net::Endpoint out{d_.remotes[rng_.below(
                                        static_cast<std::uint32_t>(
                                            d_.remotes.size()))],
                                    kRemotePorts[rng_.below(
                                        std::size(kRemotePorts))]};
            switch (rng_.below(10)) {
            case 0:
            case 1:
            case 2:
                udp_flow(in, out);
                break;
            case 3:
            case 4:
            case 5:
                tcp_flow(in, out);
                break;
            case 6:
                echo_flow(in.addr, out.addr);
                break;
            case 7:
                hairpin(in);
                break;
            case 8:
                other_transport(in, out);
                break;
            default:
                unsolicited(out);
                break;
            }
            // Mostly back to back; now and then long enough for bindings
            // to age out between flows.
            d_.wait(rng_.chance(8)
                        ? std::chrono::seconds(30 + rng_.below(300))
                        : std::chrono::milliseconds(5 + rng_.below(50)));
        }
    }

private:
    static constexpr std::uint16_t kRemotePorts[] = {7, 9, 5060, 7000,
                                                     7001, 33434};

    void settle() { d_.wait(std::chrono::milliseconds(2 + rng_.below(20))); }

    std::uint16_t ext_or_random(const FlowKey& key) {
        if (const auto p = d_.external_port(key)) return *p;
        return static_cast<std::uint16_t>(1024 + rng_.below(60000));
    }

    /// An ICMP error about a flow, quoting the datagram as it left the
    /// external side.
    void error_about(std::uint8_t proto, net::Endpoint in,
                     net::Endpoint out) {
        const FlowKey key{proto, in, out};
        const net::Endpoint ext{d_.external, ext_or_random(key)};
        Hdr q;
        q.ttl = 63;
        const auto original =
            proto == net::proto::kUdp
                ? udp(q, ext, out, filler(rng_))
                : tcp(q, ext, out, flags_of(false, true, false, false),
                      static_cast<std::uint32_t>(rng_.next()), 1,
                      filler(rng_));
        d_.wan(icmp_error(random_hdr(rng_), out.addr, d_.external, original,
                          rng_));
        settle();
    }

    void udp_flow(net::Endpoint in, net::Endpoint out) {
        const int n_out = 1 + static_cast<int>(rng_.below(3));
        for (int i = 0; i < n_out; ++i) {
            d_.lan(udp(random_hdr(rng_), in, out, filler(rng_)));
            settle();
        }
        const FlowKey key{net::proto::kUdp, in, out};
        const int n_in = static_cast<int>(rng_.below(3));
        for (int i = 0; i < n_in; ++i) {
            d_.wan(udp(random_hdr(rng_), out, {d_.external, ext_or_random(key)},
                       filler(rng_)));
            settle();
        }
        if (rng_.chance(40)) error_about(net::proto::kUdp, in, out);
        udp_flows_.push_back(key);
    }

    void tcp_flow(net::Endpoint in, net::Endpoint out) {
        const FlowKey key{net::proto::kTcp, in, out};
        std::uint32_t cseq = static_cast<std::uint32_t>(rng_.next());
        std::uint32_t sseq = static_cast<std::uint32_t>(rng_.next());
        const auto up = [&](bool syn, bool ack, bool fin, bool rst,
                            net::Bytes data) {
            const auto len = static_cast<std::uint32_t>(data.size());
            d_.lan(tcp(random_hdr(rng_), in, out,
                       flags_of(syn, ack, fin, rst), cseq, ack ? sseq : 0,
                       std::move(data)));
            cseq += len + (syn || fin ? 1u : 0u);
            settle();
        };
        const auto down = [&](bool syn, bool ack, bool fin, bool rst,
                              net::Bytes data) {
            const auto len = static_cast<std::uint32_t>(data.size());
            d_.wan(tcp(random_hdr(rng_), out, {d_.external, ext_or_random(key)},
                       flags_of(syn, ack, fin, rst), sseq, ack ? cseq : 0,
                       std::move(data)));
            sseq += len + (syn || fin ? 1u : 0u);
            settle();
        };
        up(true, false, false, false, {});
        if (rng_.chance(15)) up(true, false, false, false, {}); // SYN again
        if (rng_.chance(85)) down(true, true, false, false, {});
        up(false, true, false, false, {});
        const int data = static_cast<int>(rng_.below(4));
        for (int i = 0; i < data; ++i) {
            if (rng_.chance(50))
                up(false, true, false, false, filler(rng_));
            else
                down(false, true, false, false, filler(rng_));
        }
        switch (rng_.below(5)) {
        case 0: // orderly close, client first
            up(false, true, true, false, {});
            down(false, true, true, false, {});
            up(false, true, false, false, {});
            break;
        case 1: // orderly close, server first
            down(false, true, true, false, {});
            up(false, true, true, false, {});
            down(false, true, false, false, {});
            break;
        case 2:
            up(false, false, false, true, {});
            break;
        case 3:
            down(false, false, false, true, {});
            break;
        default: // left open
            break;
        }
        if (rng_.chance(30)) error_about(net::proto::kTcp, in, out);
    }

    void echo_flow(net::Ipv4Addr in, net::Ipv4Addr out) {
        const auto id = static_cast<std::uint16_t>(rng_.next());
        d_.lan(echo(random_hdr(rng_), in, out, false, id, 1));
        settle();
        if (rng_.chance(80)) {
            d_.wan(echo(random_hdr(rng_), out, d_.external, true, id, 1));
            settle();
        }
        if (rng_.chance(40)) {
            Hdr q;
            q.ttl = 63;
            const auto original = echo(q, d_.external, out, false, id, 2);
            d_.wan(icmp_error(random_hdr(rng_), out, d_.external, original,
                              rng_));
            settle();
        }
    }

    /// Inside-to-inside traffic addressed to the external address: aimed
    /// at a live UDP flow's external port when there is one.
    void hairpin(net::Endpoint in) {
        std::uint16_t port = static_cast<std::uint16_t>(
            1024 + rng_.below(60000));
        if (!udp_flows_.empty() && rng_.chance(80)) {
            const auto& target = udp_flows_[rng_.below(
                static_cast<std::uint32_t>(udp_flows_.size()))];
            port = ext_or_random(target);
        }
        d_.lan(udp(random_hdr(rng_), in, {d_.external, port}, filler(rng_)));
        settle();
    }

    void other_transport(net::Endpoint in, net::Endpoint out) {
        const bool sctp = rng_.chance(50);
        const auto body = [&](net::Endpoint s, net::Endpoint t) {
            if (sctp) {
                net::SctpPacket p;
                p.src_port = s.port;
                p.dst_port = t.port;
                p.verification_tag = static_cast<std::uint32_t>(rng_.next());
                p.chunks.push_back({net::SctpChunkType::Init, 0, filler(rng_)});
                return p.serialize();
            }
            net::DccpPacket p;
            p.src_port = s.port;
            p.dst_port = t.port;
            p.seq = rng_.next() & 0xffffffffffffULL;
            p.service_code = 42;
            return p.serialize(s.addr, t.addr);
        };
        const std::uint8_t proto =
            sctp ? net::proto::kSctp : net::proto::kDccp;
        d_.lan(ip(random_hdr(rng_), proto, in.addr, out.addr, body(in, out)));
        settle();
        if (rng_.chance(70)) {
            d_.wan(ip(random_hdr(rng_), proto, out.addr, d_.external,
                      body(out, {d_.external, in.port})));
            settle();
        }
    }

    void unsolicited(net::Endpoint out) {
        const net::Endpoint to{d_.external, static_cast<std::uint16_t>(
                                                20000 + rng_.below(40000))};
        if (rng_.chance(50))
            d_.wan(udp(random_hdr(rng_), out, to, filler(rng_)));
        else
            d_.wan(tcp(random_hdr(rng_), out, to,
                       flags_of(rng_.chance(50), true, false, false),
                       static_cast<std::uint32_t>(rng_.next()), 1, {}));
        settle();
    }

    Bed& d_;
    Rng rng_;
    std::vector<FlowKey> udp_flows_;
};

constexpr int kFlows = 40;

std::uint64_t seed_for(std::size_t i) { return 0x60d5eedULL + i; }

void hash_nat_stats(Fnv& f, const gateway::NatEngine::Stats& s) {
    f.u64(s.dropped_capacity);
    f.u64(s.dropped_policy);
    f.u64(s.icmp_translated);
    f.u64(s.icmp_dropped);
}

std::optional<std::uint16_t> table_port(gateway::NatEngine& nat,
                                        const FlowKey& key) {
    auto& table = key.proto == net::proto::kUdp ? nat.udp_table()
                                                : nat.tcp_table();
    if (const auto* b = table.find_outbound(key)) return b->external_port;
    return std::nullopt;
}

// --- over the wire: HomeGateway on a Testbed --------------------------------

class WireBed : public Bed {
public:
    explicit WireBed(const gateway::DeviceProfile& profile)
        : tb_(loop_), idx_(tb_.add_device(profile)) {
        auto& s = tb_.slot(idx_);
        lan_tap_.attach(*s.lan_link);
        tb_.start_and_wait();
        clients = {s.client_addr};
        remotes = {s.server_addr};
        external = s.gw_wan_addr;
    }

    void lan(const net::Bytes& d) override {
        auto& s = tb_.slot(idx_);
        tb_.client().send_raw(*s.client_if, d, s.gw->lan_addr());
    }
    void wan(const net::Bytes& d) override {
        auto& s = tb_.slot(idx_);
        tb_.server().send_raw(*s.server_if, d, s.gw_wan_addr);
    }
    void wait(sim::Duration d) override { loop_.run_until(loop_.now() + d); }
    std::optional<std::uint16_t> external_port(const FlowKey& key) override {
        return table_port(tb_.slot(idx_).gw->nat(), key);
    }

    std::uint64_t digest() {
        wait(std::chrono::seconds(5));
        Fnv f;
        for (const auto* tap : {&lan_tap_, &tb_.slot(idx_).wan_tap})
            for (const auto& r : tap->records()) {
                f.u64(static_cast<std::uint64_t>(
                    r.timestamp.count()));
                f.bytes(r.frame);
            }
        hash_nat_stats(f, tb_.slot(idx_).gw->nat().stats());
        return f.h;
    }

private:
    sim::EventLoop loop_;
    harness::Testbed tb_;
    int idx_;
    pcap::CaptureTap lan_tap_;
};

// --- engine-direct: NatEngine's packet API ----------------------------------

const net::Ipv4Addr kWan(10, 0, 1, 10);

class EngineBed : public Bed {
public:
    explicit EngineBed(const gateway::DeviceProfile& profile)
        : nat_(loop_, profile) {
        nat_.set_wan_addr(kWan);
        clients = {net::Ipv4Addr(192, 168, 1, 100),
                   net::Ipv4Addr(192, 168, 1, 101)};
        remotes = {net::Ipv4Addr(10, 0, 1, 1), net::Ipv4Addr(10, 0, 9, 9)};
        external = kWan;
    }

    void lan(const net::Bytes& d) override {
        const auto pkt = net::Ipv4Packet::parse(d);
        // HomeGateway's dispatch: traffic to the external address is a
        // hairpin candidate, everything else translates outbound.
        record(pkt.h.dst == kWan ? nat_.hairpin(pkt) : nat_.outbound(pkt),
               2);
    }
    void wan(const net::Bytes& d) override {
        bool handled = false;
        auto out = nat_.inbound(net::Ipv4Packet::parse(d), handled);
        record(out, handled ? 1 : 0);
    }
    void wait(sim::Duration d) override { loop_.run_until(loop_.now() + d); }
    std::optional<std::uint16_t> external_port(const FlowKey& key) override {
        return table_port(nat_, key);
    }

    std::uint64_t digest() {
        hash_nat_stats(f_, nat_.stats());
        return f_.h;
    }

private:
    void record(const std::optional<net::Bytes>& out, std::uint8_t tag) {
        f_.byte(tag);
        f_.byte(out.has_value());
        if (out) f_.bytes(*out);
    }

    sim::EventLoop loop_;
    gateway::NatEngine nat_;
    Fnv f_;
};

// --- engine-direct: CgnEngine -----------------------------------------------

const net::Ipv4Addr kExternal(198, 51, 100, 7);

class CgnBed : public Bed {
public:
    explicit CgnBed(const gateway::CgnConfig& cfg) : cgn_(loop_, cfg) {
        cgn_.set_addresses(net::Ipv4Addr(100, 64, 0, 1), 24, kExternal);
        // Host ids 5 and 36 share a block (mod 31): one collision.
        clients = {net::Ipv4Addr(100, 64, 0, 5), net::Ipv4Addr(100, 64, 0, 6),
                   net::Ipv4Addr(100, 64, 0, 36)};
        remotes = {net::Ipv4Addr(10, 0, 9, 9), net::Ipv4Addr(10, 0, 8, 8)};
        external = kExternal;
    }

    void lan(const net::Bytes& d) override {
        const auto pkt = net::Ipv4Packet::parse(d);
        const bool pin = pkt.h.dst == kExternal;
        auto out = pin ? cgn_.hairpin(pkt) : cgn_.outbound(pkt);
        record(out, 2);
        // Learn external ports from what the translator emitted.
        if (!pin && out && (pkt.h.protocol == net::proto::kUdp ||
                            pkt.h.protocol == net::proto::kTcp)) {
            const auto o = net::Ipv4Packet::parse(*out);
            const auto port = [](const net::Bytes& l4, int at) {
                return static_cast<std::uint16_t>((l4[at] << 8) | l4[at + 1]);
            };
            ports_[{pkt.h.protocol, pkt.h.src.value(), port(pkt.payload, 0),
                    pkt.h.dst.value(), port(pkt.payload, 2)}] =
                port(o.payload, 0);
        }
    }
    void wan(const net::Bytes& d) override {
        bool handled = false;
        auto out = cgn_.inbound(net::Ipv4Packet::parse(d), handled);
        record(out, handled ? 1 : 0);
    }
    void wait(sim::Duration d) override { loop_.run_until(loop_.now() + d); }
    std::optional<std::uint16_t> external_port(const FlowKey& key) override {
        const auto it = ports_.find({key.proto, key.internal.addr.value(),
                                     key.internal.port, key.remote.addr.value(),
                                     key.remote.port});
        if (it == ports_.end()) return std::nullopt;
        return it->second;
    }

    std::uint64_t digest() {
        const auto& s = cgn_.stats();
        for (const auto v :
             {s.translated_out, s.translated_in, s.pool_exhausted,
              s.block_collisions, s.dropped_no_binding, s.dropped_policy,
              s.icmp_relayed, s.icmp_dropped, s.hairpinned})
            f_.u64(v);
        return f_.h;
    }

private:
    void record(const std::optional<net::Bytes>& out, std::uint8_t tag) {
        f_.byte(tag);
        f_.byte(out.has_value());
        if (out) f_.bytes(*out);
    }

    sim::EventLoop loop_;
    gateway::CgnEngine cgn_;
    Fnv f_;
    std::map<std::tuple<std::uint8_t, std::uint32_t, std::uint16_t,
                        std::uint32_t, std::uint16_t>,
             std::uint16_t>
        ports_;
};

// --- the committed digests --------------------------------------------------

struct ProfileGolden {
    const char* tag;
    std::uint64_t wire;
    std::uint64_t engine;
};

// Generated with GATEKIT_GOLDEN_PRINT=1.
constexpr ProfileGolden kProfileGolden[] = {
    {"al", 0xd26598859f3a21b5ULL, 0xd93654593c62ae97ULL},
    {"ap", 0x232dec75a3a9f220ULL, 0x2a689529c54ab5f5ULL},
    {"as1", 0x6d7066eba1a9907bULL, 0x2b0e9d9f7ad39314ULL},
    {"be1", 0xba1d1350ab884515ULL, 0x8f4e7798513dde46ULL},
    {"be2", 0x3f96ff6e559a6263ULL, 0xdbca03925019a86dULL},
    {"bu1", 0x40f86a52530696a6ULL, 0x59ae89adb9d07a01ULL},
    {"dl1", 0x93c38bcf37ae3558ULL, 0x24133be0606c77a7ULL},
    {"dl2", 0x448dc2773e8b16bfULL, 0xceb83672dbd180faULL},
    {"dl3", 0xaf2fabe8f76dfcc1ULL, 0x827a88f85ab6644cULL},
    {"dl4", 0x2699952e0d1e0f75ULL, 0xaad054fda7d16dceULL},
    {"dl5", 0x612bccdd90450d62ULL, 0xd69d1ba1ea2979daULL},
    {"dl6", 0xf82c2e17da721e08ULL, 0x8170a8926a2efd04ULL},
    {"dl7", 0xc608e5fc3165bef4ULL, 0xd0892b9da7892875ULL},
    {"dl8", 0x7bf9d2800c6f1391ULL, 0x08a606ecff8f83e4ULL},
    {"dl9", 0xd207abb6d56f5fc5ULL, 0xd48eebacd9502a2dULL},
    {"dl10", 0x53d65a3de587ad12ULL, 0x9f60a5e91dad9b27ULL},
    {"ed", 0x77578a6d3bc9aef1ULL, 0xa01c8ec7b43dbbffULL},
    {"je", 0x8e7a79e4f1ebae48ULL, 0x6d955ecd06c4d1b3ULL},
    {"ls1", 0x76d2274d0a3bdcb5ULL, 0x8e3db2b1cc8189aaULL},
    {"ls2", 0x4e76abc64b18ba53ULL, 0x129ce1f27e5b1484ULL},
    {"ls3", 0xa0ea7392a69eb217ULL, 0x2974f281f888d143ULL},
    {"ls5", 0xddaacff4ad0a8cfeULL, 0x2dd701d7daf4d06dULL},
    {"owrt", 0x14bfef2f4087fb07ULL, 0x1af0d7f16db362e8ULL},
    {"to", 0x1ef1d6ff4b63e223ULL, 0x7b519e1da6c464f1ULL},
    {"ng1", 0xc81e90b5d6536f9fULL, 0x42f852f4beb2f8bfULL},
    {"ng2", 0xc2ce4adac77b55d8ULL, 0x6553f88c8fbc905cULL},
    {"ng3", 0x7a0f367dee21c807ULL, 0x29cf55de4db62643ULL},
    {"ng4", 0x4d541809f8f74e7bULL, 0xf1bbcf2ab8c55c1bULL},
    {"ng5", 0xa9419623e5a8ff84ULL, 0x51da9b8f4d0b2885ULL},
    {"nw1", 0x9ce60f52b893da29ULL, 0x7699c3d2684435d9ULL},
    {"smc", 0xc90ede6e06a282baULL, 0xa347ec905b9682f2ULL},
    {"te", 0x1872f6edff13c264ULL, 0xa38d3fdd62bbf8aeULL},
    {"we", 0xd44d2024c5e1cbaeULL, 0xb74014aa71aa8d78ULL},
    {"zy1", 0x6efb4d80f45d54eeULL, 0xdcc204b017317cb7ULL},
};

struct CgnGolden {
    const char* mode;
    std::uint64_t digest;
};

constexpr CgnGolden kCgnGolden[] = {
    {"block/eim", 0x1f897b032a7819b6ULL},
    {"block/edm", 0x3f888696ddd92f48ULL},
    {"shared/eim", 0x1a7a540ee62b155aULL},
    {"shared/edm", 0xf2c2614f57f3cf34ULL},
};

bool printing() { return std::getenv("GATEKIT_GOLDEN_PRINT") != nullptr; }

} // namespace

TEST(TranslateGolden, CalibratedProfilesWireAndEngine) {
    const auto& profiles = devices::all_profiles();
    if (printing()) std::printf("constexpr ProfileGolden kProfileGolden[] = {\n");
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        WireBed wire(profiles[i]);
        Mix(wire, seed_for(i)).run(kFlows);
        EngineBed engine(profiles[i]);
        Mix(engine, seed_for(i)).run(kFlows);
        const auto w = wire.digest();
        const auto e = engine.digest();
        if (printing()) {
            std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                        profiles[i].tag.c_str(),
                        static_cast<unsigned long long>(w),
                        static_cast<unsigned long long>(e));
            continue;
        }
        ASSERT_EQ(std::size(kProfileGolden), profiles.size());
        EXPECT_EQ(profiles[i].tag, kProfileGolden[i].tag);
        EXPECT_EQ(w, kProfileGolden[i].wire) << profiles[i].tag << " (wire)";
        EXPECT_EQ(e, kProfileGolden[i].engine)
            << profiles[i].tag << " (engine)";
    }
    if (printing()) std::printf("};\n");
}

TEST(TranslateGolden, CgnBlockAndSharedTimesEimEdm) {
    if (printing()) std::printf("constexpr CgnGolden kCgnGolden[] = {\n");
    std::size_t i = 0;
    for (const std::uint16_t block : {std::uint16_t{2048}, std::uint16_t{0}})
        for (const bool eim : {true, false}) {
            gateway::CgnConfig cfg;
            cfg.block_size = block;
            cfg.eim = eim;
            const std::string mode = std::string(block ? "block" : "shared") +
                                     (eim ? "/eim" : "/edm");
            CgnBed d(cfg);
            Mix(d, seed_for(100 + i)).run(2 * kFlows);
            const auto h = d.digest();
            if (printing()) {
                std::printf("    {\"%s\", 0x%016llxULL},\n", mode.c_str(),
                            static_cast<unsigned long long>(h));
            } else {
                ASSERT_EQ(std::size(kCgnGolden), 4u);
                EXPECT_EQ(mode, kCgnGolden[i].mode);
                EXPECT_EQ(h, kCgnGolden[i].digest) << mode;
            }
            ++i;
        }
    if (printing()) std::printf("};\n");
}
