// Golden translation digests. A seeded, mixed packet workload runs
// through every calibrated profile twice — over the wire (a HomeGateway
// on a Testbed, LAN + WAN captures with timestamps) and engine-direct
// (NatEngine's packet API) — and through CgnEngine in block and
// shared-pool modes × EIM/EDM. Each leg folds everything observable
// (translated bytes, verdicts, drop counters, wire timing) into one
// FNV-1a digest, and the committed digests pin the translator's
// behaviour across refactors of its internals. A NAT444 leg runs both
// mixes over the wire through each profile behind a CgnGateway, which
// pins the CGN's frame hooks as the first leg pins HomeGateway's.
//
// The mix: UDP and TCP with and without a Record Route option; TTL 1, 2
// and 64; SYN/FIN/RST sequences; inbound ICMP errors quoting the full
// datagram, the RFC 792 8-byte prefix, or the bare IP header; ICMP
// echo; hairpin; SCTP and DCCP; unsolicited inbound traffic. A second
// leg with its own seeds and digests (IcmpMix) covers what the first
// leaves thin: errors inside hosts send, truncated ICMP, late echo
// replies and errors, undefined error codes, late SCTP/DCCP replies and
// outside traffic addressed straight to an inside host.
//
// A digest that moves means observable behaviour moved. To regenerate
// after a deliberate behaviour change, run with GATEKIT_GOLDEN_PRINT=1,
// paste the printed tables below, and say why in the commit message.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
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
#include "testutil.hpp"

using namespace gatekit;
using gateway::FlowKey;
using testutil::inbound_copy;
using testutil::outbound_copy;

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

using IcmpKindCode = std::pair<net::IcmpType, std::uint8_t>;

/// An ICMP error from `src` quoting `original` in one of three styles:
/// 0 the whole datagram, 1 the RFC 792 header + 8 bytes, 2 the bare
/// header.
net::Bytes quote_error(const Hdr& h, net::Ipv4Addr src, net::Ipv4Addr dst,
                       IcmpKindCode kind, const net::Bytes& original,
                       std::uint32_t style) {
    auto msg = net::IcmpMessage::make_error(kind.first, kind.second, 0,
                                            original);
    if (style == 0) msg.payload = original;                       // full
    if (style == 2) msg.payload.resize((original[0] & 0xf) * 4u); // header
    return ip(h, net::proto::kIcmp, src, dst, msg.serialize());
}

/// quote_error with a random defined kind and a random style.
net::Bytes icmp_error(const Hdr& h, net::Ipv4Addr src, net::Ipv4Addr dst,
                      const net::Bytes& original, Rng& rng) {
    static constexpr IcmpKindCode kinds[] = {
        {net::IcmpType::DestUnreachable, net::icmp_code::kPortUnreachable},
        {net::IcmpType::DestUnreachable, net::icmp_code::kHostUnreachable},
        {net::IcmpType::DestUnreachable, net::icmp_code::kNetUnreachable},
        {net::IcmpType::DestUnreachable, net::icmp_code::kFragNeeded},
        {net::IcmpType::TimeExceeded, net::icmp_code::kTtlExceeded},
        {net::IcmpType::SourceQuench, 0},
        {net::IcmpType::ParamProblem, 0},
    };
    const auto kind = kinds[rng.below(std::size(kinds))];
    return quote_error(h, src, dst, kind, original, rng.below(3));
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

/// The second mix: the ICMP and other-transport cases the first leaves
/// thin. Errors an inside host sends about a UDP datagram, TCP segment or
/// echo reply it received; ICMP messages shorter than their 8-byte
/// header; echo replies and errors after the 60 s query timeout; error
/// codes no RFC defines; SCTP/DCCP replies before and after the IP-only
/// mapping times out; and outside traffic addressed straight to an
/// inside host. Every datagram draws its TTL and options from
/// random_hdr, like the first mix.
class IcmpMix {
public:
    IcmpMix(Bed& d, std::uint64_t seed) : d_(d), rng_(seed) {}

    void run(int rounds) {
        for (int r = 0; r < rounds; ++r) {
            const net::Endpoint in{
                d_.clients[rng_.below(
                    static_cast<std::uint32_t>(d_.clients.size()))],
                static_cast<std::uint16_t>(30000 + rng_.below(20000))};
            const net::Endpoint out{
                d_.remotes[rng_.below(
                    static_cast<std::uint32_t>(d_.remotes.size()))],
                kPorts[rng_.below(std::size(kPorts))]};
            switch (rng_.below(7)) {
            case 0:
                udp_then_inside_error(in, out);
                break;
            case 1:
                tcp_then_inside_error(in, out);
                break;
            case 2:
                echo_late(in.addr, out.addr);
                break;
            case 3:
                short_icmp(in.addr, out.addr);
                break;
            case 4:
                undefined_codes(in, out);
                break;
            case 5:
                other_transport(in, out);
                break;
            default:
                straight_to_inside(in, out);
                break;
            }
            d_.wait(std::chrono::milliseconds(5 + rng_.below(50)));
        }
    }

private:
    static constexpr std::uint16_t kPorts[] = {7, 9, 5060, 33434};

    void settle() { d_.wait(std::chrono::milliseconds(2 + rng_.below(20))); }
    /// Past the 60 s ICMP query timeout.
    void past_query_timeout() {
        d_.wait(std::chrono::seconds(61 + rng_.below(30)));
    }

    std::uint16_t ext_or_random(const FlowKey& key) {
        if (const auto p = d_.external_port(key)) return *p;
        return static_cast<std::uint16_t>(1024 + rng_.below(60000));
    }

    IcmpKindCode inside_kind() {
        static constexpr IcmpKindCode kinds[] = {
            {net::IcmpType::DestUnreachable, net::icmp_code::kPortUnreachable},
            {net::IcmpType::DestUnreachable, net::icmp_code::kHostUnreachable},
            {net::IcmpType::TimeExceeded, net::icmp_code::kTtlExceeded},
            {net::IcmpType::ParamProblem, 0},
        };
        return kinds[rng_.below(std::size(kinds))];
    }

    /// Mostly a code no RFC defines; now and then a defined one.
    IcmpKindCode odd_kind() {
        static constexpr IcmpKindCode kinds[] = {
            {net::IcmpType::TimeExceeded, 2},
            {net::IcmpType::DestUnreachable, 13},
            {net::IcmpType::TimeExceeded, 2},
            {net::IcmpType::DestUnreachable, 13},
            {net::IcmpType::DestUnreachable, net::icmp_code::kPortUnreachable},
            {net::IcmpType::TimeExceeded, net::icmp_code::kTtlExceeded},
        };
        return kinds[rng_.below(std::size(kinds))];
    }

    /// An inside host reports an error about `received`, the datagram as
    /// it reached the host, back toward `remote`.
    void inside_error(net::Ipv4Addr host, net::Ipv4Addr remote,
                      const net::Bytes& received) {
        const auto kind = inside_kind();
        const auto h = random_hdr(rng_);
        d_.lan(quote_error(h, host, remote, kind, received, rng_.below(3)));
        settle();
    }

    /// A UDP datagram with a random header and payload. Each draw is its
    /// own statement: argument evaluation order is unspecified.
    net::Bytes random_udp(net::Endpoint src, net::Endpoint dst) {
        const auto h = random_hdr(rng_);
        return udp(h, src, dst, filler(rng_));
    }

    void udp_then_inside_error(net::Endpoint in, net::Endpoint out) {
        d_.lan(random_udp(in, out));
        settle();
        const FlowKey key{net::proto::kUdp, in, out};
        const auto body = filler(rng_);
        const net::Endpoint ext{d_.external, ext_or_random(key)};
        d_.wan(udp(random_hdr(rng_), out, ext, body));
        settle();
        Hdr q;
        q.ttl = static_cast<std::uint8_t>(60 + rng_.below(4));
        inside_error(in.addr, out.addr, udp(q, out, in, body));
    }

    void tcp_then_inside_error(net::Endpoint in, net::Endpoint out) {
        const auto cseq = static_cast<std::uint32_t>(rng_.next());
        const auto sseq = static_cast<std::uint32_t>(rng_.next());
        d_.lan(tcp(random_hdr(rng_), in, out,
                   flags_of(true, false, false, false), cseq, 0, {}));
        settle();
        const FlowKey key{net::proto::kTcp, in, out};
        const auto synack = flags_of(true, true, false, false);
        const net::Endpoint ext{d_.external, ext_or_random(key)};
        d_.wan(tcp(random_hdr(rng_), out, ext, synack, sseq, cseq + 1, {}));
        settle();
        Hdr q;
        q.ttl = static_cast<std::uint8_t>(60 + rng_.below(4));
        inside_error(in.addr, out.addr,
                     tcp(q, out, in, synack, sseq, cseq + 1, {}));
    }

    void echo_late(net::Ipv4Addr in, net::Ipv4Addr out) {
        const auto id = static_cast<std::uint16_t>(rng_.next());
        d_.lan(echo(random_hdr(rng_), in, out, false, id, 1));
        settle();
        if (rng_.chance(50)) past_query_timeout();
        if (rng_.chance(80)) {
            d_.wan(echo(random_hdr(rng_), out, d_.external, true, id, 1));
            settle();
            if (rng_.chance(50)) {
                Hdr q;
                q.ttl = static_cast<std::uint8_t>(60 + rng_.below(4));
                inside_error(in, out, echo(q, out, in, true, id, 1));
            }
        }
        if (rng_.chance(60)) {
            if (rng_.chance(50)) past_query_timeout();
            Hdr q;
            q.ttl = 63;
            const auto original = echo(q, d_.external, out, false, id, 2);
            d_.wan(icmp_error(random_hdr(rng_), out, d_.external, original,
                              rng_));
            settle();
        }
    }

    /// ICMP cut short of its 8-byte header, from either side.
    void short_icmp(net::Ipv4Addr in, net::Ipv4Addr out) {
        static constexpr std::uint8_t kTypes[] = {0, 3, 8, 11};
        const auto body = [&] {
            net::Bytes b(rng_.below(8));
            for (auto& x : b) x = static_cast<std::uint8_t>(rng_.next());
            if (!b.empty()) b[0] = kTypes[rng_.below(std::size(kTypes))];
            return b;
        };
        const auto up = body();
        d_.lan(ip(random_hdr(rng_), net::proto::kIcmp, in, out, up));
        settle();
        const auto down = body();
        d_.wan(ip(random_hdr(rng_), net::proto::kIcmp, out, d_.external,
                  down));
        settle();
    }

    /// An outside error about a live UDP, TCP or echo flow, mostly with a
    /// code no RFC defines.
    void undefined_codes(net::Endpoint in, net::Endpoint out) {
        const auto which = rng_.below(3);
        Hdr q;
        q.ttl = 63;
        net::Bytes original;
        if (which == 2) {
            const auto id = static_cast<std::uint16_t>(rng_.next());
            d_.lan(echo(random_hdr(rng_), in.addr, out.addr, false, id, 1));
            original = echo(q, d_.external, out.addr, false, id, 1);
        } else {
            const std::uint8_t proto =
                which == 0 ? net::proto::kUdp : net::proto::kTcp;
            const auto seq = static_cast<std::uint32_t>(rng_.next());
            const auto syn = flags_of(true, false, false, false);
            d_.lan(proto == net::proto::kUdp
                       ? random_udp(in, out)
                       : tcp(random_hdr(rng_), in, out, syn, seq, 0, {}));
            const net::Endpoint ext{
                d_.external, ext_or_random(FlowKey{proto, in, out})};
            original = proto == net::proto::kUdp
                           ? udp(q, ext, out, filler(rng_))
                           : tcp(q, ext, out, syn, seq, 0, {});
        }
        settle();
        const auto kind = odd_kind();
        const auto h = random_hdr(rng_);
        d_.wan(quote_error(h, out.addr, d_.external, kind, original,
                           rng_.below(3)));
        settle();
    }

    void other_transport(net::Endpoint in, net::Endpoint out) {
        const bool sctp = rng_.chance(50);
        const std::uint8_t proto =
            sctp ? net::proto::kSctp : net::proto::kDccp;
        const auto packet = [&](net::Endpoint s, net::Endpoint t,
                                net::Ipv4Addr dst) {
            net::Bytes body;
            if (sctp) {
                net::SctpPacket p;
                p.src_port = s.port;
                p.dst_port = t.port;
                p.verification_tag = static_cast<std::uint32_t>(rng_.next());
                p.chunks.push_back(
                    {net::SctpChunkType::Init, 0, filler(rng_)});
                body = p.serialize();
            } else {
                net::DccpPacket p;
                p.src_port = s.port;
                p.dst_port = t.port;
                p.seq = rng_.next() & 0xffffffffffffULL;
                p.service_code = 7;
                body = p.serialize(s.addr, t.addr);
            }
            return ip(random_hdr(rng_), proto, s.addr, dst, std::move(body));
        };
        d_.lan(packet(in, out, out.addr));
        settle();
        // None, one soon, one after the IP-only mapping's timeout (120 s
        // on every calibrated device), or both.
        const auto replies = rng_.below(4);
        if ((replies & 1) != 0) {
            d_.wan(packet(out, in, d_.external));
            settle();
        }
        if ((replies & 2) != 0) {
            d_.wait(std::chrono::seconds(121 + rng_.below(60)));
            d_.wan(packet(out, in, d_.external));
            settle();
        }
    }

    /// Outside traffic addressed to an inside host rather than the
    /// external address: only a plain-router fallback forwards it.
    void straight_to_inside(net::Endpoint in, net::Endpoint out) {
        switch (rng_.below(3)) {
        case 0:
            d_.wan(random_udp(out, in));
            break;
        case 1: {
            const auto id = static_cast<std::uint16_t>(rng_.next());
            d_.wan(echo(random_hdr(rng_), out.addr, in.addr, false, id, 1));
            break;
        }
        default: {
            net::SctpPacket p;
            p.src_port = out.port;
            p.dst_port = in.port;
            p.chunks.push_back({net::SctpChunkType::Init, 0, filler(rng_)});
            d_.wan(ip(random_hdr(rng_), net::proto::kSctp, out.addr, in.addr,
                      p.serialize()));
            break;
        }
        }
        settle();
    }

    Bed& d_;
    Rng rng_;
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
        s.wan_tap.attach(*s.wan_link);
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

// --- over the wire: NAT444, a HomeGateway behind a CgnGateway --------------

void hash_cgn_stats(Fnv& f, const gateway::CgnEngine::Stats& s) {
    for (const auto v :
         {s.translated_out, s.translated_in, s.pool_exhausted,
          s.block_collisions, s.dropped_no_binding, s.dropped_policy,
          s.icmp_relayed, s.icmp_dropped, s.hairpinned})
        f.u64(v);
}

/// One calibrated gateway behind one CGN on a Testbed. The inside is the
/// test client's vlan-if, the outside the group's test-server interface,
/// and the external address the CGN's: every datagram crosses both
/// gateways' frame hooks. Taps on the member's LAN link, its WAN link
/// (on the access network) and the group's uplink see every hop.
class Nat444Bed : public Bed {
public:
    explicit Nat444Bed(const gateway::DeviceProfile& profile)
        : tb_(loop_), grp_(tb_.add_cgn_group()),
          idx_(tb_.add_device_behind_cgn(profile, grp_)) {
        auto& s = tb_.slot(idx_);
        lan_tap_.attach(*s.lan_link);
        s.wan_tap.attach(*s.wan_link);
        uplink_tap_.attach(*tb_.cgn_group(grp_).wan_link);
        tb_.start_and_wait();
        clients = {s.client_addr};
        remotes = {tb_.cgn_group(grp_).server_addr};
        external = tb_.cgn_group(grp_).external_addr;
    }

    void lan(const net::Bytes& d) override {
        auto& s = tb_.slot(idx_);
        tb_.client().send_raw(*s.client_if, d, s.gw->lan_addr());
    }
    void wan(const net::Bytes& d) override {
        auto& g = tb_.cgn_group(grp_);
        tb_.server().send_raw(*g.server_if, d, g.external_addr);
    }
    void wait(sim::Duration d) override { loop_.run_until(loop_.now() + d); }
    /// The CGN's port for the home gateway's translation of `key`.
    std::optional<std::uint16_t> external_port(const FlowKey& key) override {
        auto& s = tb_.slot(idx_);
        const auto home = table_port(s.gw->nat(), key);
        const auto* cgn =
            tb_.cgn_group(grp_).cgn->engine().engine_for(s.gw_wan_addr);
        if (!home || cgn == nullptr) return std::nullopt;
        // find_outbound is a pure lookup; the engine itself is not const.
        return table_port(const_cast<gateway::NatEngine&>(*cgn),
                          {key.proto, {s.gw_wan_addr, *home}, key.remote});
    }

    std::uint64_t digest() {
        wait(std::chrono::seconds(5));
        Fnv f;
        for (const auto* tap :
             {&lan_tap_, &tb_.slot(idx_).wan_tap, &uplink_tap_})
            for (const auto& r : tap->records()) {
                f.u64(static_cast<std::uint64_t>(r.timestamp.count()));
                f.bytes(r.frame);
            }
        hash_nat_stats(f, tb_.slot(idx_).gw->nat().stats());
        hash_cgn_stats(f, tb_.cgn_group(grp_).cgn->engine().stats());
        return f.h;
    }

private:
    sim::EventLoop loop_;
    harness::Testbed tb_;
    int grp_;
    int idx_;
    pcap::CaptureTap lan_tap_;
    pcap::CaptureTap uplink_tap_;
};

// --- engine-direct: NatEngine's packet API ----------------------------------

/// `engine`'s in-place hairpin on a serialized copy of `pkt`: the
/// rewritten bytes, or nullopt when it refuses.
template <class Engine>
std::optional<net::Bytes> hairpin_copy(Engine& engine,
                                       const net::Ipv4Packet& pkt) {
    net::Bytes bytes = pkt.serialize();
    auto v = net::PacketView::of(bytes);
    if (!engine.hairpin(v)) return std::nullopt;
    return bytes;
}

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
        record(pkt.h.dst == kWan ? hairpin_copy(nat_, pkt)
                                 : outbound_copy(nat_, pkt),
               2);
    }
    void wan(const net::Bytes& d) override {
        bool handled = false;
        auto out = inbound_copy(nat_, net::Ipv4Packet::parse(d), handled);
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
        auto out = pin ? hairpin_copy(cgn_, pkt) : outbound_copy(cgn_, pkt);
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
        auto out = inbound_copy(cgn_, net::Ipv4Packet::parse(d), handled);
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
        hash_cgn_stats(f_, cgn_.stats());
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
    {"bu1", 0x40f86a52530696a6ULL, 0x1ec30eb29be7b4fbULL},
    {"dl1", 0x93c38bcf37ae3558ULL, 0x24133be0606c77a7ULL},
    {"dl2", 0x448dc2773e8b16bfULL, 0x0eac68788fca3f43ULL},
    {"dl3", 0xaf2fabe8f76dfcc1ULL, 0x827a88f85ab6644cULL},
    {"dl4", 0x2699952e0d1e0f75ULL, 0x5927e3872158545bULL},
    {"dl5", 0x612bccdd90450d62ULL, 0xd69d1ba1ea2979daULL},
    {"dl6", 0xf82c2e17da721e08ULL, 0x8170a8926a2efd04ULL},
    {"dl7", 0xc608e5fc3165bef4ULL, 0xd0892b9da7892875ULL},
    {"dl8", 0x7bf9d2800c6f1391ULL, 0x446727f517506bc7ULL},
    {"dl9", 0xd207abb6d56f5fc5ULL, 0xd48eebacd9502a2dULL},
    {"dl10", 0x53d65a3de587ad12ULL, 0x9f60a5e91dad9b27ULL},
    {"ed", 0x77578a6d3bc9aef1ULL, 0x9e10c11bf63761a8ULL},
    {"je", 0x8e7a79e4f1ebae48ULL, 0x99ac8685eaa726f6ULL},
    {"ls1", 0x76d2274d0a3bdcb5ULL, 0x8e3db2b1cc8189aaULL},
    {"ls2", 0x4e76abc64b18ba53ULL, 0x8dd67bffb2911675ULL},
    {"ls3", 0xa0ea7392a69eb217ULL, 0x7ceea0ba86eb1780ULL},
    {"ls5", 0xddaacff4ad0a8cfeULL, 0x2dd701d7daf4d06dULL},
    {"owrt", 0x14bfef2f4087fb07ULL, 0x1af0d7f16db362e8ULL},
    {"to", 0x1ef1d6ff4b63e223ULL, 0x9de338824545451aULL},
    {"ng1", 0xc81e90b5d6536f9fULL, 0x42f852f4beb2f8bfULL},
    {"ng2", 0xc2ce4adac77b55d8ULL, 0x6553f88c8fbc905cULL},
    {"ng3", 0x7a0f367dee21c807ULL, 0x29cf55de4db62643ULL},
    {"ng4", 0x4d541809f8f74e7bULL, 0x573ca997a1dd544aULL},
    {"ng5", 0xa9419623e5a8ff84ULL, 0x17e968536acef21eULL},
    {"nw1", 0x9ce60f52b893da29ULL, 0x7699c3d2684435d9ULL},
    {"smc", 0xc90ede6e06a282baULL, 0xa347ec905b9682f2ULL},
    {"te", 0x1872f6edff13c264ULL, 0xec6de8a1970adacfULL},
    {"we", 0xd44d2024c5e1cbaeULL, 0xbe758587c81c81cbULL},
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

// The ICMP and other-transport leg (IcmpMix), same layout.
// Generated with GATEKIT_GOLDEN_PRINT=1.
constexpr ProfileGolden kIcmpProfileGolden[] = {
    {"al", 0x949e6ea480f95bb4ULL, 0xfaf8a3013da4ed66ULL},
    {"ap", 0x5055541e71e9655bULL, 0x2b2541992bd7f1b8ULL},
    {"as1", 0x584e57cb5d5c4d49ULL, 0xa568c2bec8029959ULL},
    {"be1", 0xb8fdca7829325967ULL, 0xeaf9409af7468a79ULL},
    {"be2", 0x5ecf0a75b0d31fbcULL, 0x42336074e53b9fc2ULL},
    {"bu1", 0x940a3c97618b5558ULL, 0xdb03aa36454ab275ULL},
    {"dl1", 0xa5c93587e192aefbULL, 0xa4020b504cc2f8a3ULL},
    {"dl2", 0x929d1864273f2c8cULL, 0x9a94733b319af556ULL},
    {"dl3", 0xe8d487d3275dfd29ULL, 0x9ca954f7b8821847ULL},
    {"dl4", 0x146298a3c549170dULL, 0x16c22ec34534e052ULL},
    {"dl5", 0xf8fb93508b72b690ULL, 0x5712eb05ec381af3ULL},
    {"dl6", 0xf966b3f2bd17e797ULL, 0xec6a4e221fb3ff03ULL},
    {"dl7", 0x2641a7ff276bec51ULL, 0x1bcfd3e41665b6d4ULL},
    {"dl8", 0x0c5475437c69bd19ULL, 0xb5bfd685b9d51983ULL},
    {"dl9", 0xa83331af847d7c5fULL, 0xbdc363bc635ed473ULL},
    {"dl10", 0xcf48fd68fec2c4d4ULL, 0x4d04aa6e9c8e9f29ULL},
    {"ed", 0xe442e37d740f7966ULL, 0x64b16d14218c31fbULL},
    {"je", 0x00a847949d6ea86cULL, 0x31e8a1c28e6e86bcULL},
    {"ls1", 0xeaf003ff3bfd3801ULL, 0x0c86b815571e51c5ULL},
    {"ls2", 0x00cd1ad778b9b540ULL, 0x7149838ce421ad56ULL},
    {"ls3", 0x533673dade70afbdULL, 0x6b14c3c52be44a40ULL},
    {"ls5", 0xdb4fa36d11478b03ULL, 0xfa6b795aa41cbddaULL},
    {"owrt", 0xe925e49fa5ad2315ULL, 0x81b5ce95631950beULL},
    {"to", 0x323be955905473c3ULL, 0x67a288ed98355a33ULL},
    {"ng1", 0xe68680a3abbf16fbULL, 0x39a04d778084daf4ULL},
    {"ng2", 0x3f9520c47769642aULL, 0x3c507f7c1b16e213ULL},
    {"ng3", 0x6ce61bfdcbc0aff7ULL, 0x8d6b6c738e7bf27eULL},
    {"ng4", 0x6ca9c741d09c3eecULL, 0x7dd591f8526a2077ULL},
    {"ng5", 0xada64aebad56a1e4ULL, 0x35166bd60a2299c8ULL},
    {"nw1", 0xf3180e4ba3c7017eULL, 0xcf9118c510fa4169ULL},
    {"smc", 0xf1e354a620f0ed4bULL, 0x08629483209bf631ULL},
    {"te", 0x1a37df1a759c0263ULL, 0x9bc39c9763ab3818ULL},
    {"we", 0x6cbc97ce78ffcfe8ULL, 0x66f62dff98496aadULL},
    {"zy1", 0xd7fb095cdb31c492ULL, 0x078998a1e223d274ULL},
};

constexpr CgnGolden kIcmpCgnGolden[] = {
    {"block/eim", 0xce47ad4d2f25826eULL},
    {"block/edm", 0xf59c58b424f9b1ddULL},
    {"shared/eim", 0xdf075c6b1827b5caULL},
    {"shared/edm", 0xbf44cc3df2fe5bc6ULL},
};

// NAT444 over the wire: each calibrated profile behind a default CGN,
// Mix and IcmpMix (seeds seed_for(2000 + i) and seed_for(3000 + i)).
// Generated with GATEKIT_GOLDEN_PRINT=1.
struct Nat444Golden {
    const char* tag;
    std::uint64_t mix;
    std::uint64_t icmp_mix;
};

constexpr Nat444Golden kNat444Golden[] = {
    {"al", 0x471cd5019d546adcULL, 0x77aee00c8af1f813ULL},
    {"ap", 0x78d12063130c3fabULL, 0x1a9bbbd2230e877eULL},
    {"as1", 0x38071e9a295ab3bcULL, 0xe81b0a435dd358b0ULL},
    {"be1", 0xe210bf2208a44b83ULL, 0x7857807e69b39d1dULL},
    {"be2", 0xc5213c23a339b952ULL, 0xdcf0938aadb71824ULL},
    {"bu1", 0xf0cf1dad84f6e7b7ULL, 0x397360c604934cefULL},
    {"dl1", 0x557447a47aac4002ULL, 0x96d6682f24d2cbb5ULL},
    {"dl2", 0x2e90e003916cd464ULL, 0xfd3dbffeee743db5ULL},
    {"dl3", 0x269573e882c279cbULL, 0x4c35fc0f8a747b70ULL},
    {"dl4", 0x3b6e0bc64b22c733ULL, 0x3bc15d5ad273f643ULL},
    {"dl5", 0xab5f5fe4ca552344ULL, 0x2e51ba0f9de2e108ULL},
    {"dl6", 0xf8b3e87bf0c9ba2dULL, 0x8ffdcddd9275e5d9ULL},
    {"dl7", 0x2cc9d32df6e3e962ULL, 0x6d57d8befd1138eaULL},
    {"dl8", 0x523ee287c449f75cULL, 0x4a7dd92a106c2dcdULL},
    {"dl9", 0x277ad15d62897409ULL, 0xe99ae483568d6462ULL},
    {"dl10", 0x63e3f155655cdcf0ULL, 0x21fa6ef4dc060e11ULL},
    {"ed", 0xc611ee03e5316866ULL, 0x23e571ddf460e255ULL},
    {"je", 0x2e1cf6620b2c5401ULL, 0xb30f45ada70a4458ULL},
    {"ls1", 0x50a79fb502b04816ULL, 0xbbe66f1e9cc8b2ccULL},
    {"ls2", 0x9064cfc48e52be62ULL, 0x3cc8193d3cb48dddULL},
    {"ls3", 0x75e35f8327221eb0ULL, 0x8fdff4dfb16cab1fULL},
    {"ls5", 0x19150f3ff0c0e45cULL, 0x6fa858db4d310708ULL},
    {"owrt", 0x4ee90a6bac6cdf74ULL, 0xb360e56180367156ULL},
    {"to", 0xb5c87c3b2748f56fULL, 0x8de49128af7a34b7ULL},
    {"ng1", 0x45de4af69ee8c5e8ULL, 0xdbd93a0eb34f8b1eULL},
    {"ng2", 0x7d285c99c9d8964cULL, 0x18aabf425e496486ULL},
    {"ng3", 0xf9685c036afdea6cULL, 0x1d73593cee60897cULL},
    {"ng4", 0x89bdbc6d4ce114bfULL, 0xa481dc2106750a6bULL},
    {"ng5", 0xc3caf817d9376dc0ULL, 0x1ba78ad83b4060feULL},
    {"nw1", 0x153e35c95eebe34cULL, 0x624403f5c858d2efULL},
    {"smc", 0x9562466960e15700ULL, 0x951cf02eedc5eccaULL},
    {"te", 0xee90bfbf90e9b3c9ULL, 0xc2609c8b06029c0fULL},
    {"we", 0xaf3bb4fc3145cc0dULL, 0x060164a6f5f24bf9ULL},
    {"zy1", 0xa038f1b92b679337ULL, 0x9b109d8092e0028aULL},
};

bool printing() { return std::getenv("GATEKIT_GOLDEN_PRINT") != nullptr; }

/// Run mix M over every calibrated profile, on the wire and engine-direct
/// (seeds seed_for(first_seed + i)), and check or print `golden`.
template <typename M>
void check_profiles(std::span<const ProfileGolden> golden,
                    std::size_t first_seed, const char* table) {
    const auto& profiles = devices::all_profiles();
    if (printing()) std::printf("constexpr ProfileGolden %s[] = {\n", table);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        WireBed wire(profiles[i]);
        M(wire, seed_for(first_seed + i)).run(kFlows);
        EngineBed engine(profiles[i]);
        M(engine, seed_for(first_seed + i)).run(kFlows);
        const auto w = wire.digest();
        const auto e = engine.digest();
        if (printing()) {
            std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                        profiles[i].tag.c_str(),
                        static_cast<unsigned long long>(w),
                        static_cast<unsigned long long>(e));
            continue;
        }
        ASSERT_EQ(golden.size(), profiles.size());
        EXPECT_EQ(profiles[i].tag, golden[i].tag);
        EXPECT_EQ(w, golden[i].wire) << profiles[i].tag << " (wire)";
        EXPECT_EQ(e, golden[i].engine) << profiles[i].tag << " (engine)";
    }
    if (printing()) std::printf("};\n");
}

/// Run mix M through CgnEngine in block and shared-pool modes x EIM/EDM
/// (seeds seed_for(first_seed + i)) and check or print `golden`.
template <typename M>
void check_cgn(std::span<const CgnGolden> golden, std::size_t first_seed,
               const char* table) {
    if (printing()) std::printf("constexpr CgnGolden %s[] = {\n", table);
    std::size_t i = 0;
    for (const std::uint16_t block : {std::uint16_t{2048}, std::uint16_t{0}})
        for (const bool eim : {true, false}) {
            gateway::CgnConfig cfg;
            cfg.block_size = block;
            cfg.eim = eim;
            const std::string mode = std::string(block ? "block" : "shared") +
                                     (eim ? "/eim" : "/edm");
            CgnBed d(cfg);
            M(d, seed_for(first_seed + i)).run(2 * kFlows);
            const auto h = d.digest();
            if (printing()) {
                std::printf("    {\"%s\", 0x%016llxULL},\n", mode.c_str(),
                            static_cast<unsigned long long>(h));
            } else {
                ASSERT_EQ(golden.size(), 4u);
                EXPECT_EQ(mode, golden[i].mode);
                EXPECT_EQ(h, golden[i].digest) << mode;
            }
            ++i;
        }
    if (printing()) std::printf("};\n");
}

} // namespace

TEST(TranslateGolden, CalibratedProfilesWireAndEngine) {
    check_profiles<Mix>(kProfileGolden, 0, "kProfileGolden");
}

TEST(TranslateGolden, CgnBlockAndSharedTimesEimEdm) {
    check_cgn<Mix>(kCgnGolden, 100, "kCgnGolden");
}

TEST(TranslateGolden, IcmpAndOtherTransportsWireEngineAndCgn) {
    check_profiles<IcmpMix>(kIcmpProfileGolden, 1000, "kIcmpProfileGolden");
    check_cgn<IcmpMix>(kIcmpCgnGolden, 1100, "kIcmpCgnGolden");
}

TEST(TranslateGolden, Nat444WireThroughCgnGateway) {
    const auto& profiles = devices::all_profiles();
    if (printing()) std::printf("constexpr Nat444Golden kNat444Golden[] = {\n");
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        Nat444Bed mix(profiles[i]);
        Mix(mix, seed_for(2000 + i)).run(kFlows);
        Nat444Bed icmp(profiles[i]);
        IcmpMix(icmp, seed_for(3000 + i)).run(kFlows);
        const auto m = mix.digest();
        const auto c = icmp.digest();
        if (printing()) {
            std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                        profiles[i].tag.c_str(),
                        static_cast<unsigned long long>(m),
                        static_cast<unsigned long long>(c));
            continue;
        }
        ASSERT_EQ(std::size(kNat444Golden), profiles.size());
        EXPECT_EQ(profiles[i].tag, kNat444Golden[i].tag);
        EXPECT_EQ(m, kNat444Golden[i].mix) << profiles[i].tag << " (Mix)";
        EXPECT_EQ(c, kNat444Golden[i].icmp_mix)
            << profiles[i].tag << " (IcmpMix)";
    }
    if (printing()) std::printf("};\n");
}
