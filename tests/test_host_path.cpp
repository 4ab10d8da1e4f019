// Differential pins for the host data path, the frames that carry
// TCP-2/3 between the test hosts and the gateways:
//   (a) VlanSwitch forwarding is byte-equal to a reference switch built
//       on EthernetFrame::parse/serialize, with the same drop decisions;
//   (b) the host receive path accepts and decodes TCP exactly as the
//       EthernetFrame -> Ipv4Packet -> TcpSegment parse chain does, on a
//       corpus captured from a TCP-2 run plus seeded damage;
//   (c) a 2-device TCP-2 run's client-trunk and WAN captures hash to
//       fixed digests;
//   (d) PacketView::parse accepts exactly the datagrams Ipv4Packet::parse
//       accepts and reads the same fields from them;
//   (e) every kind of datagram a Host sends hashes to a fixed digest as
//       it leaves;
//   (f) the route lookup cache follows every change to the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "devices/profiles.hpp"
#include "harness/tcp_probes.hpp"
#include "harness/testbed.hpp"
#include "l2/vlan_switch.hpp"
#include "net/ethernet.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/packet_view.hpp"
#include "net/sctp.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"
#include "stack/dccp_endpoint.hpp"
#include "stack/host.hpp"
#include "stack/sctp_endpoint.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"
#include "util/rng.hpp"

using namespace gatekit;

namespace {

struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void byte(std::uint8_t b) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void bytes(std::span<const std::uint8_t> b) {
        u64(b.size());
        for (auto x : b) byte(x);
    }
};

/// Seeded draws for the corpora.
struct Draw {
    explicit Draw(std::uint64_t seed) : rng(seed) {}
    std::uint32_t below(std::uint32_t n) {
        return n == 0 ? 0 : static_cast<std::uint32_t>(rng.next_u64() % n);
    }
    std::uint64_t next() { return rng.next_u64(); }
    Rng rng;
};

/// Records every frame a link delivers to it.
struct Recorder : sim::FrameSink {
    void frame_in(sim::Frame frame) override { got.push_back(std::move(frame)); }
    std::vector<sim::Frame> got;
};

net::MacAddr mac_of(std::uint8_t last) {
    return net::MacAddr({0x02, 0, 0, 0, 0, last});
}

// --- (a) VLAN switch -------------------------------------------------------

/// The switch as EthernetFrame::parse/serialize define it: parse, learn,
/// forward or flood, reserialize with the egress port's tagging.
class RefSwitch {
public:
    void add_port(bool trunk, std::uint16_t vlan) {
        ports_.push_back({trunk, vlan});
        out.emplace_back();
    }

    void ingress(int in, const sim::Frame& raw) {
        net::EthernetFrame frame;
        try {
            frame = net::EthernetFrame::parse(raw);
        } catch (const net::ParseError&) {
            return;
        }
        const Port& p = ports_[static_cast<std::size_t>(in)];
        std::uint16_t vlan = 0;
        if (p.trunk) {
            if (!frame.vlan_id) return;
            vlan = *frame.vlan_id;
        } else {
            if (frame.vlan_id) return;
            vlan = p.vlan;
        }
        if (!frame.src.is_multicast()) fdb_[{vlan, frame.src}] = in;
        if (!frame.dst.is_multicast()) {
            auto it = fdb_.find({vlan, frame.dst});
            if (it != fdb_.end()) {
                if (it->second != in && member(it->second, vlan))
                    egress(it->second, vlan, frame);
                return;
            }
        }
        for (int o = 0; o < static_cast<int>(ports_.size()); ++o)
            if (o != in && member(o, vlan)) egress(o, vlan, frame);
    }

    std::vector<std::vector<sim::Frame>> out;

private:
    struct Port {
        bool trunk;
        std::uint16_t vlan;
    };
    bool member(int o, std::uint16_t vlan) const {
        const Port& p = ports_[static_cast<std::size_t>(o)];
        return p.trunk || p.vlan == vlan;
    }
    void egress(int o, std::uint16_t vlan, net::EthernetFrame frame) {
        if (ports_[static_cast<std::size_t>(o)].trunk)
            frame.vlan_id = vlan;
        else
            frame.vlan_id.reset();
        out[static_cast<std::size_t>(o)].push_back(frame.serialize());
    }

    std::vector<Port> ports_;
    std::map<std::pair<std::uint16_t, net::MacAddr>, int> fdb_;
};

/// Every access/trunk pairing: two access ports share VLAN 10, one sits
/// alone on VLAN 20, and two trunks carry everything.
struct SwitchBed {
    static constexpr int kPorts = 5;
    sim::EventLoop loop;
    l2::VlanSwitch sw{loop};
    RefSwitch ref;
    std::vector<std::unique_ptr<sim::Link>> links;
    std::vector<std::unique_ptr<Recorder>> rx;

    SwitchBed() {
        const std::pair<bool, std::uint16_t> layout[kPorts] = {
            {false, 10}, {false, 10}, {false, 20}, {true, 0}, {true, 0}};
        for (const auto& [trunk, vlan] : layout) {
            const int p = trunk ? sw.add_trunk_port() : sw.add_access_port(vlan);
            ref.add_port(trunk, vlan);
            links.push_back(std::make_unique<sim::Link>(
                loop, 100'000'000, std::chrono::microseconds(1)));
            rx.push_back(std::make_unique<Recorder>());
            sw.connect(p, *links.back(), sim::Link::Side::B);
            links.back()->attach(sim::Link::Side::A, *rx.back());
        }
    }

    void inject(int port, const sim::Frame& frame) {
        ref.ingress(port, frame);
        links[static_cast<std::size_t>(port)]->send(sim::Link::Side::A, frame);
        loop.run();
    }
};

sim::Frame random_switch_frame(Draw& rng) {
    static const net::MacAddr kMacs[] = {
        mac_of(1), mac_of(2), mac_of(3), mac_of(4), mac_of(5),
        net::MacAddr::broadcast(),
        net::MacAddr({0x01, 0x00, 0x5e, 0x00, 0x00, 0x01})};
    sim::Frame f;
    const auto put_mac = [&f](const net::MacAddr& m) {
        f.insert(f.end(), m.octets().begin(), m.octets().end());
    };
    put_mac(kMacs[rng.below(7)]);
    put_mac(kMacs[rng.below(5)]);
    const auto put16 = [&f](std::uint16_t v) {
        f.push_back(static_cast<std::uint8_t>(v >> 8));
        f.push_back(static_cast<std::uint8_t>(v));
    };
    const auto tci = [&rng] {
        static const std::uint16_t kVids[] = {10, 20, 30, 0};
        // Random PCP/DEI bits: the switch must mask them on ingress.
        const auto pcp_dei = static_cast<std::uint16_t>(rng.below(16) << 12);
        return static_cast<std::uint16_t>(pcp_dei | kVids[rng.below(4)]);
    };
    const std::uint32_t shape = rng.below(10);
    if (shape >= 4) put16(net::kEtherTypeVlan), put16(tci());
    if (shape == 9) put16(net::kEtherTypeVlan), put16(tci()); // double tag
    static const std::uint16_t kTypes[] = {net::kEtherTypeIpv4,
                                           net::kEtherTypeArp, 0x88cc};
    put16(kTypes[rng.below(3)]);
    const std::uint32_t body = rng.below(64);
    for (std::uint32_t i = 0; i < body; ++i)
        f.push_back(static_cast<std::uint8_t>(rng.next()));
    // Runts: cut anywhere, including inside the header and the tag.
    if (rng.below(8) == 0) f.resize(rng.below(static_cast<std::uint32_t>(f.size())));
    return f;
}

// --- (c) a 2-device TCP-2 capture ------------------------------------------

struct Tcp2Capture {
    struct Frame {
        sim::Link::Side from;
        sim::TimePoint at;
        sim::Frame bytes;
    };
    std::vector<Frame> client_trunk;
    std::vector<std::vector<Frame>> wan;

    /// The test client's L3 setup, so a stand-in host can take its place.
    struct Vif {
        std::optional<std::uint16_t> vlan;
        net::Ipv4Addr addr;
        int prefix_len = 0;
        net::Ipv4Addr router;
        net::MacAddr router_mac;
        net::Ipv4Addr far_subnet;
    };
    std::vector<Vif> vifs;
};

void record_link(sim::Link& link, std::vector<Tcp2Capture::Frame>& into) {
    link.set_tap([&into](sim::Link::Side from, sim::TimePoint at,
                         std::span<const std::uint8_t> f) {
        into.push_back({from, at, sim::Frame(f.begin(), f.end())});
    });
}

const Tcp2Capture& tcp2_capture() {
    static const Tcp2Capture cap = [] {
        Tcp2Capture c;
        sim::EventLoop loop;
        harness::Testbed tb(loop);
        const auto& profiles = devices::all_profiles();
        c.wan.resize(2);
        for (int i = 0; i < 2; ++i) {
            const int s = tb.add_device(profiles[static_cast<std::size_t>(i)]);
            record_link(*tb.slot(s).wan_link, c.wan[static_cast<std::size_t>(i)]);
        }
        record_link(tb.client_trunk(), c.client_trunk);
        tb.start_and_wait();
        for (int s = 0; s < 2; ++s) {
            harness::ThroughputConfig cfg;
            cfg.bytes = 60'000;
            cfg.port_base = static_cast<std::uint16_t>(5001 + 10 * s);
            bool done = false;
            harness::measure_throughput(
                tb, s, cfg, [&done](harness::ThroughputResult) { done = true; });
            for (int t = 0; t < 600 && !done; ++t)
                loop.run_for(std::chrono::seconds(1));
            EXPECT_TRUE(done);
        }
        loop.run_for(std::chrono::seconds(5));
        for (int s = 0; s < 2; ++s) {
            auto& slot = tb.slot(s);
            Tcp2Capture::Vif v;
            v.vlan = slot.client_if->vlan();
            v.addr = slot.client_addr;
            v.prefix_len = slot.client_if->prefix_len();
            v.router = slot.client_if->gateway();
            v.router_mac = *slot.client_if->arp_cache().lookup(v.router);
            v.far_subnet = net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(slot.index), 0);
            c.vifs.push_back(v);
        }
        return c;
    }();
    return cap;
}

std::uint64_t digest(const std::vector<Tcp2Capture::Frame>& frames) {
    Fnv f;
    for (const auto& r : frames) {
        f.byte(r.from == sim::Link::Side::A ? 0 : 1);
        f.u64(static_cast<std::uint64_t>(r.at.count()));
        f.bytes(r.bytes);
    }
    return f.h;
}

// --- (b) host receive ------------------------------------------------------

/// A host standing in for the test client: same MAC, vlan-ifs,
/// addresses, routes and resolved routers, but no sockets, so every TCP
/// segment the receive path accepts draws a RST that shows what it read.
struct StandIn {
    sim::EventLoop loop;
    sim::Link link{loop, 100'000'000, std::chrono::microseconds(1)};
    stack::Host host{loop, "stand-in", net::MacAddr::from_index(1)};
    Recorder wire;

    explicit StandIn(const Tcp2Capture& cap) {
        host.nic().connect(link, sim::Link::Side::A);
        link.attach(sim::Link::Side::B, wire);
        for (const auto& v : cap.vifs) {
            auto& iface = host.add_iface(v.vlan);
            iface.configure(v.addr, v.prefix_len);
            iface.set_gateway(v.router);
            iface.arp_cache().insert(v.router, v.router_mac);
            host.add_route(v.addr, v.prefix_len, iface);
            host.add_route(v.far_subnet, 24, iface, v.router);
        }
    }

    /// TCP segments the host emits for one input frame.
    std::vector<std::pair<net::Ipv4Packet, net::TcpSegment>> feed(sim::Frame f) {
        wire.got.clear();
        host.nic().frame_in(std::move(f));
        loop.run();
        std::vector<std::pair<net::Ipv4Packet, net::TcpSegment>> out;
        for (const auto& raw : wire.got) {
            const auto eth = net::EthernetFrame::parse(raw);
            if (eth.ethertype != net::kEtherTypeIpv4) continue;
            auto pkt = net::Ipv4Packet::parse(eth.payload);
            if (pkt.h.protocol != net::proto::kTcp) continue;
            auto seg = net::TcpSegment::parse(pkt.payload, pkt.h.src, pkt.h.dst);
            out.emplace_back(std::move(pkt), std::move(seg));
        }
        return out;
    }

    /// Whether a datagram from a local address to `dst` would leave now:
    /// routed, on a configured iface, with the next hop resolved.
    bool emits_to(net::Ipv4Addr dst) {
        if (dst.is_broadcast() || host.is_local_addr(dst)) return false;
        const stack::Route* r = host.lookup_route(dst);
        if (r == nullptr || !r->iface->configured()) return false;
        net::Ipv4Addr hop = r->via ? *r->via : dst;
        if (!hop.same_subnet(r->iface->addr(), r->iface->prefix_len()))
            hop = r->iface->gateway();
        return r->iface->arp_cache().lookup(hop).has_value();
    }
};

/// What the parse chain says the stand-in must answer to `raw`: nothing,
/// or a RST with these fields.
struct ExpectedRst {
    net::Ipv4Addr src, dst;
    std::uint16_t sport = 0, dport = 0;
    std::uint32_t seq = 0, ack = 0;
    bool ack_flag = false;
};

std::optional<ExpectedRst> reference_reply(StandIn& si, const sim::Frame& raw) {
    net::EthernetFrame eth;
    net::Ipv4Packet pkt;
    net::TcpSegment seg;
    try {
        eth = net::EthernetFrame::parse(raw);
        if (!eth.dst.is_broadcast() && eth.dst != si.host.nic().mac())
            return std::nullopt;
        if (si.host.nic().find_iface(eth.vlan_id) == nullptr) return std::nullopt;
        if (eth.ethertype != net::kEtherTypeIpv4) return std::nullopt;
        pkt = net::Ipv4Packet::parse(eth.payload);
        if (!pkt.h.dst.is_broadcast() && !si.host.is_local_addr(pkt.h.dst))
            return std::nullopt;
        if (pkt.h.more_fragments || pkt.h.frag_offset != 0) return std::nullopt;
        if (pkt.h.protocol != net::proto::kTcp) return std::nullopt;
        seg = net::TcpSegment::parse(pkt.payload, pkt.h.src, pkt.h.dst);
    } catch (const net::ParseError&) {
        return std::nullopt;
    }
    if (!seg.checksum_ok || seg.flags.rst) return std::nullopt;
    if (!si.emits_to(pkt.h.src)) return std::nullopt;
    ExpectedRst e;
    e.src = pkt.h.dst;
    e.dst = pkt.h.src;
    e.sport = seg.dst_port;
    e.dport = seg.src_port;
    if (seg.flags.ack) {
        e.seq = seg.ack;
    } else {
        e.ack_flag = true;
        e.ack = seg.seq + (seg.flags.syn ? 1u : 0u) +
                static_cast<std::uint32_t>(seg.payload.size()) +
                (seg.flags.fin ? 1u : 0u);
    }
    return e;
}

/// Rewrite the TCP checksum of an untouched captured frame after an edit.
void refresh_tcp_checksum(sim::Frame& f) {
    const auto eth = net::EthernetFrame::parse(f);
    auto pkt = net::Ipv4Packet::parse(eth.payload);
    auto seg = net::TcpSegment::parse(pkt.payload, pkt.h.src, pkt.h.dst);
    const std::size_t l2 = f.size() - eth.payload.size();
    const std::size_t l4 = l2 + pkt.h.header_len();
    const auto fresh = seg.serialize(pkt.h.src, pkt.h.dst);
    std::copy(fresh.begin(), fresh.end(), f.begin() + static_cast<long>(l4));
}

/// The corpus: every captured frame toward the client, plus variants.
std::vector<sim::Frame> receive_corpus() {
    const auto& cap = tcp2_capture();
    Draw rng(0x5eedf00dULL);
    std::vector<sim::Frame> corpus;
    for (const auto& r : cap.client_trunk) {
        if (r.from != sim::Link::Side::B) continue;
        const sim::Frame& f = r.bytes;
        corpus.push_back(f);
        bool tcp = false;
        std::size_t l4 = 0;
        try {
            const auto eth = net::EthernetFrame::parse(f);
            const auto pkt = net::Ipv4Packet::parse(eth.payload);
            tcp = pkt.h.protocol == net::proto::kTcp;
            l4 = f.size() - eth.payload.size() + pkt.h.header_len();
        } catch (const net::ParseError&) {
        }
        if (!tcp) continue;
        // Link padding: bytes past the IPv4 total length are not data.
        sim::Frame padded = f;
        padded.resize(f.size() + 1 + rng.below(40), 0xee);
        corpus.push_back(std::move(padded));
        // Truncation anywhere, including inside the headers.
        sim::Frame cut = f;
        cut.resize(rng.below(static_cast<std::uint32_t>(f.size())));
        corpus.push_back(std::move(cut));
        // One bit flipped anywhere.
        sim::Frame flip = f;
        const auto at = rng.below(static_cast<std::uint32_t>(f.size()));
        flip[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        corpus.push_back(std::move(flip));
        // A bad TCP checksum.
        sim::Frame bad = f;
        bad[l4 + 16] ^= 0x40;
        corpus.push_back(std::move(bad));
        // Data offsets below 20 and past the segment.
        for (const std::uint8_t doff : {std::uint8_t{4}, std::uint8_t{15}}) {
            sim::Frame odd = f;
            odd[l4 + 12] = static_cast<std::uint8_t>((doff << 4) | (odd[l4 + 12] & 0x0f));
            corpus.push_back(std::move(odd));
        }
        // Without ACK, the RST acknowledges seq + SYN + payload + FIN:
        // the stand-in's reply then shows the payload length it read.
        if ((f[l4 + 13] & 0x10) != 0) {
            sim::Frame no_ack = f;
            no_ack[l4 + 13] &= static_cast<std::uint8_t>(~0x10);
            refresh_tcp_checksum(no_ack);
            corpus.push_back(no_ack);
            no_ack.resize(no_ack.size() + 6, 0);
            corpus.push_back(std::move(no_ack));
        }
    }
    return corpus;
}

// --- (d) PacketView against Ipv4Packet::parse -----------------------------

/// UDP (plain, with Record Route, first and later fragments), ICMP-error
/// and SCTP datagrams, each with link padding, truncations and bit flips.
std::vector<net::Bytes> datagram_corpus() {
    const net::Ipv4Addr a(192, 168, 1, 10), b(203, 0, 113, 5);
    std::vector<net::Ipv4Packet> base;

    net::Ipv4Packet udp;
    udp.h.protocol = net::proto::kUdp;
    udp.h.src = a;
    udp.h.dst = b;
    net::UdpDatagram dgram;
    dgram.src_port = 40000;
    dgram.dst_port = 3478;
    dgram.payload = {1, 2, 3, 4, 5, 6, 7};
    udp.payload = dgram.serialize(a, b);
    base.push_back(udp);

    net::Ipv4Packet rr = udp;
    rr.h.ttl = 3;
    rr.h.options = net::Ipv4Packet::make_record_route_option(4);
    base.push_back(rr);

    net::Ipv4Packet first = udp;
    first.h.more_fragments = true;
    base.push_back(first);
    net::Ipv4Packet later = udp;
    later.h.frag_offset = 185;
    base.push_back(later);

    net::Ipv4Packet icmp;
    icmp.h.protocol = net::proto::kIcmp;
    icmp.h.src = b;
    icmp.h.dst = a;
    icmp.payload = net::IcmpMessage::make_error(
                       net::IcmpType::DestUnreachable,
                       net::icmp_code::kPortUnreachable, 0, rr.serialize())
                       .serialize();
    base.push_back(icmp);

    net::SctpPacket init;
    init.src_port = 5000;
    init.dst_port = 5001;
    init.chunks.push_back({net::SctpChunkType::Init, 0, net::Bytes(16, 0x11)});
    net::Ipv4Packet sctp;
    sctp.h.protocol = net::proto::kSctp;
    sctp.h.src = a;
    sctp.h.dst = b;
    sctp.payload = init.serialize();
    base.push_back(sctp);

    Draw rng(0xd47a6e4dULL);
    std::vector<net::Bytes> out;
    for (const auto& pkt : base) {
        const net::Bytes wire = pkt.serialize();
        const auto size = static_cast<std::uint32_t>(wire.size());
        out.push_back(wire);
        for (int k = 0; k < 24; ++k) {
            net::Bytes padded = wire;
            padded.resize(wire.size() + 1 + rng.below(40), 0xee);
            out.push_back(std::move(padded));
            net::Bytes cut = wire;
            cut.resize(rng.below(size));
            out.push_back(std::move(cut));
            net::Bytes flip = wire;
            flip[rng.below(size)] ^= static_cast<std::uint8_t>(1u << rng.below(8));
            out.push_back(std::move(flip));
        }
    }
    return out;
}

} // namespace

TEST(HostPath, SwitchForwardMatchesParseSerialize) {
    SwitchBed bed;
    Draw rng(0x51c0ffeeULL);
    for (int i = 0; i < 4000; ++i)
        bed.inject(static_cast<int>(rng.below(SwitchBed::kPorts)),
                   random_switch_frame(rng));
    std::size_t delivered = 0;
    for (int p = 0; p < SwitchBed::kPorts; ++p) {
        const auto& want = bed.ref.out[static_cast<std::size_t>(p)];
        const auto& got = bed.rx[static_cast<std::size_t>(p)]->got;
        ASSERT_EQ(got.size(), want.size()) << "port " << p;
        for (std::size_t k = 0; k < want.size(); ++k)
            ASSERT_EQ(got[k], want[k]) << "port " << p << " frame " << k;
        delivered += got.size();
    }
    // The corpus reaches every decision: forwards, floods and drops.
    EXPECT_GT(delivered, 1500u);
    EXPECT_GT(bed.sw.mac_table_size(), 10u);
}

TEST(HostPath, SwitchKeepsTheDocumentedDropRules) {
    SwitchBed bed;
    const auto frame = [](std::uint16_t type, std::size_t len) {
        sim::Frame f;
        for (int i = 0; i < 6; ++i) f.push_back(0xff);
        for (int i = 0; i < 5; ++i) f.push_back(0x02);
        f.push_back(0x09);
        f.push_back(static_cast<std::uint8_t>(type >> 8));
        f.push_back(static_cast<std::uint8_t>(type));
        f.resize(len, 0x0a);
        return f;
    };
    const auto total = [&bed] {
        std::size_t n = 0;
        for (const auto& r : bed.rx) n += r->got.size();
        return n;
    };
    bed.inject(0, frame(net::kEtherTypeIpv4, 13));  // runt
    bed.inject(3, frame(net::kEtherTypeVlan, 17));  // tagged runt
    bed.inject(3, frame(net::kEtherTypeIpv4, 60));  // untagged on a trunk
    bed.inject(0, frame(net::kEtherTypeVlan, 60));  // tagged on an access port
    EXPECT_EQ(total(), 0u);
    bed.inject(0, frame(net::kEtherTypeIpv4, 14));  // minimal: floods VLAN 10
    EXPECT_EQ(total(), 3u);
    // A tag carrying PCP/DEI bits leaves the trunk with only the VID.
    sim::Frame tagged = frame(net::kEtherTypeVlan, 18);
    tagged[14] = 0xe0; // PCP 7, DEI 0, VID 10
    tagged[15] = 0x0a;
    bed.inject(3, tagged);
    ASSERT_EQ(bed.rx[4]->got.size(), 2u);
    EXPECT_EQ(bed.rx[4]->got.back()[14], 0x00);
    EXPECT_EQ(bed.rx[4]->got.back()[15], 0x0a);
}

TEST(HostPath, ReceiveAcceptsAndDecodesLikeTheParseChain) {
    const auto corpus = receive_corpus();
    ASSERT_GT(corpus.size(), 1000u);
    StandIn si(tcp2_capture());
    std::size_t replies = 0, drops = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto want = reference_reply(si, corpus[i]);
        const auto got = si.feed(corpus[i]);
        if (!want) {
            EXPECT_TRUE(got.empty()) << "frame " << i;
            ++drops;
            continue;
        }
        ++replies;
        ASSERT_EQ(got.size(), 1u) << "frame " << i;
        const auto& [pkt, seg] = got.front();
        EXPECT_EQ(pkt.h.src, want->src) << "frame " << i;
        EXPECT_EQ(pkt.h.dst, want->dst) << "frame " << i;
        EXPECT_EQ(seg.src_port, want->sport) << "frame " << i;
        EXPECT_EQ(seg.dst_port, want->dport) << "frame " << i;
        EXPECT_TRUE(seg.flags.rst) << "frame " << i;
        EXPECT_EQ(seg.flags.ack, want->ack_flag) << "frame " << i;
        EXPECT_EQ(seg.seq, want->seq) << "frame " << i;
        EXPECT_EQ(seg.ack, want->ack) << "frame " << i;
        EXPECT_TRUE(seg.checksum_ok) << "frame " << i;
    }
    EXPECT_GT(replies, 500u);
    EXPECT_GT(drops, 500u);
}

TEST(HostPath, PacketViewAgreesWithIpv4PacketParse) {
    auto datagrams = datagram_corpus();
    for (const auto& f : receive_corpus()) {
        try {
            const auto eth = net::EthernetFrame::parse(f);
            if (eth.ethertype == net::kEtherTypeIpv4)
                datagrams.push_back(eth.payload);
        } catch (const net::ParseError&) {
        }
    }
    std::size_t accepted = 0, refused = 0;
    for (std::size_t i = 0; i < datagrams.size(); ++i) {
        net::Bytes bytes = datagrams[i];
        const auto view = net::PacketView::parse(bytes);
        std::optional<net::Ipv4Packet> pkt;
        try {
            pkt = net::Ipv4Packet::parse(datagrams[i]);
        } catch (const net::ParseError&) {
        }
        ASSERT_EQ(view.has_value(), pkt.has_value()) << "datagram " << i;
        if (!view) {
            ++refused;
            continue;
        }
        ++accepted;
        EXPECT_EQ(view->src(), pkt->h.src) << "datagram " << i;
        EXPECT_EQ(view->dst(), pkt->h.dst) << "datagram " << i;
        EXPECT_EQ(view->protocol(), pkt->h.protocol) << "datagram " << i;
        EXPECT_EQ(view->ttl(), pkt->h.ttl) << "datagram " << i;
        EXPECT_EQ(view->is_fragment(),
                  pkt->h.more_fragments || pkt->h.frag_offset != 0)
            << "datagram " << i;
        const auto payload = view->payload();
        EXPECT_TRUE(std::ranges::equal(payload, pkt->payload)) << "datagram " << i;
        EXPECT_TRUE(std::ranges::equal(view->options(), pkt->h.options))
            << "datagram " << i;
    }
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(refused, 300u);
}

/// One host on a tagged vlan-if, fed crafted frames from a peer whose
/// replies are read back off the wire.
struct Crafted {
    sim::EventLoop loop;
    sim::Link link{loop, 100'000'000, std::chrono::microseconds(1)};
    stack::Host host{loop, "h", net::MacAddr::from_index(1)};
    Recorder wire;
    const net::Ipv4Addr me{10, 0, 0, 2};
    const net::Ipv4Addr peer{10, 0, 0, 1};

    Crafted() {
        host.nic().connect(link, sim::Link::Side::A);
        link.attach(sim::Link::Side::B, wire);
        auto& iface = host.add_iface(std::uint16_t{7});
        iface.configure(me, 24);
        iface.arp_cache().insert(peer, mac_of(9));
        host.add_route(net::Ipv4Addr(10, 0, 0, 0), 24, iface);
    }

    /// Segments the host has put on the wire since the last call.
    std::vector<net::TcpSegment> sent() {
        std::vector<net::TcpSegment> out;
        for (const auto& raw : wire.got) {
            const auto e = net::EthernetFrame::parse(raw);
            const auto p = net::Ipv4Packet::parse(e.payload);
            out.push_back(net::TcpSegment::parse(p.payload, p.h.src, p.h.dst));
        }
        wire.got.clear();
        return out;
    }

    /// Deliver `seg` from the peer, with `pad` bytes of link padding.
    std::vector<net::TcpSegment> send(const net::TcpSegment& seg,
                                      std::size_t pad = 0) {
        net::Ipv4Packet pkt;
        pkt.h.protocol = net::proto::kTcp;
        pkt.h.src = peer;
        pkt.h.dst = me;
        pkt.payload = seg.serialize(peer, me);
        net::EthernetFrame eth;
        eth.dst = host.nic().mac();
        eth.src = mac_of(9);
        eth.vlan_id = 7;
        eth.ethertype = net::kEtherTypeIpv4;
        eth.payload = pkt.serialize();
        eth.payload.resize(eth.payload.size() + pad, 0xee);
        wire.got.clear();
        host.nic().frame_in(eth.serialize());
        loop.run_for(std::chrono::milliseconds(1));
        return sent();
    }
};

TEST(HostPath, PaddedAndEmptySegmentsReachTheSocket) {
    Crafted c;
    std::vector<std::uint8_t> data;
    c.host.tcp_listen(80).set_accept_handler([&data](stack::TcpSocket& s) {
        s.on_data = [&data](std::span<const std::uint8_t> d) {
            data.insert(data.end(), d.begin(), d.end());
        };
    });
    net::TcpSegment syn;
    syn.src_port = 4000;
    syn.dst_port = 80;
    syn.seq = 1000;
    syn.flags.syn = true;
    const auto synack = c.send(syn);
    ASSERT_EQ(synack.size(), 1u);
    EXPECT_TRUE(synack[0].flags.syn && synack[0].flags.ack);
    EXPECT_EQ(synack[0].ack, 1001u);

    net::TcpSegment ack;
    ack.src_port = 4000;
    ack.dst_port = 80;
    ack.seq = 1001;
    ack.ack = synack[0].seq + 1;
    ack.flags.ack = true;
    EXPECT_TRUE(c.send(ack, 12).empty()); // empty payload: no reply

    net::TcpSegment seg = ack;
    seg.flags.psh = true;
    seg.payload = {'h', 'e', 'l', 'l', 'o'};
    const auto acked = c.send(seg, 20); // padding past the total length
    ASSERT_EQ(acked.size(), 1u);
    EXPECT_EQ(acked[0].ack, 1006u);
    EXPECT_EQ(data, (std::vector<std::uint8_t>{'h', 'e', 'l', 'l', 'o'}));
}

TEST(HostPath, RstToAFinWithoutAckCountsTheFin) {
    // RFC 793 (and Linux's tcp_v4_send_reset): the RST acknowledges the
    // whole segment length, and FIN occupies a sequence number.
    Crafted c;
    net::TcpSegment fin;
    fin.src_port = 4000;
    fin.dst_port = 81; // closed
    fin.seq = 5000;
    fin.flags.fin = true;
    fin.payload = {1, 2, 3, 4, 5};
    const auto rst = c.send(fin);
    ASSERT_EQ(rst.size(), 1u);
    EXPECT_TRUE(rst[0].flags.rst && rst[0].flags.ack);
    EXPECT_EQ(rst[0].seq, 0u);
    EXPECT_EQ(rst[0].ack, 5000u + 5u + 1u);
}

TEST(HostPath, SynAckOptionsReachTheSocket) {
    Crafted c;
    auto& conn = c.host.tcp_connect(c.me, 4000, {c.peer, 80});
    c.loop.run_for(std::chrono::milliseconds(1));
    const auto syn = c.sent();
    ASSERT_EQ(syn.size(), 1u);

    net::TcpSegment synack;
    synack.src_port = 80;
    synack.dst_port = 4000;
    synack.seq = 7000;
    synack.ack = syn[0].seq + 1;
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.add_mss_option(536);
    synack.add_wscale_option(4);
    ASSERT_EQ(c.send(synack).size(), 1u); // the handshake's final ACK
    ASSERT_TRUE(conn.established());

    // The peer's MSS caps every segment.
    conn.send(net::Bytes(5000, 0x42));
    c.loop.run_for(std::chrono::milliseconds(1));
    const auto burst = c.sent();
    ASSERT_EQ(burst.size(), 8u);
    for (const auto& s : burst) EXPECT_EQ(s.payload.size(), 536u);

    // A window of 40 scaled by 2^4 admits exactly one more segment.
    net::TcpSegment ack;
    ack.src_port = 80;
    ack.dst_port = 4000;
    ack.seq = 7001;
    ack.ack = burst.back().seq + 536;
    ack.flags.ack = true;
    ack.window = 40;
    const auto more = c.send(ack);
    ASSERT_EQ(more.size(), 1u);
    EXPECT_EQ(more[0].payload.size(), 536u);
}

TEST(HostPath, Tcp2CaptureDigestsArePinned) {
    const auto& cap = tcp2_capture();
    ASSERT_EQ(cap.wan.size(), 2u);
    const std::uint64_t trunk = digest(cap.client_trunk);
    const std::uint64_t wan0 = digest(cap.wan[0]);
    const std::uint64_t wan1 = digest(cap.wan[1]);
    if (std::getenv("GATEKIT_GOLDEN_PRINT") != nullptr)
        std::printf("trunk 0x%016llx wan0 0x%016llx wan1 0x%016llx "
                    "(%zu, %zu, %zu frames)\n",
                    static_cast<unsigned long long>(trunk),
                    static_cast<unsigned long long>(wan0),
                    static_cast<unsigned long long>(wan1),
                    cap.client_trunk.size(), cap.wan[0].size(),
                    cap.wan[1].size());
    EXPECT_EQ(trunk, 0x90e0c93a9ef45dd6ULL);
    EXPECT_EQ(wan0, 0x604f7096d3f99f8dULL);
    EXPECT_EQ(wan1, 0xa0b5a6fdf187782eULL);
}

// --- (e) the host send path -------------------------------------------------

// Every kind of datagram a Host sends, hashed as it leaves: the frames on
// the wire (side, time, bytes), the datagrams delivered into host a (its
// loopback traffic included) and each send's return value. Two hosts on
// one link, a (10.0.0.1/24, gateway 10.0.0.2, plus an unconfigured VLAN
// 7 iface) and b (10.0.0.2/24). Senders interleave within one event, so
// the IP id sequence is in the hash too.
TEST(HostPath, SendPathWireBytesArePinned) {
    using net::Ipv4Addr;
    sim::EventLoop loop;
    sim::Link link{loop, 100'000'000, std::chrono::microseconds(1)};
    stack::Host a{loop, "a", net::MacAddr::from_index(1)};
    stack::Host b{loop, "b", net::MacAddr::from_index(2)};
    stack::Iface& ia = a.add_iface();
    stack::Iface& iv = a.add_iface(std::uint16_t{7});
    stack::Iface& ib = b.add_iface();
    a.nic().connect(link, sim::Link::Side::A);
    b.nic().connect(link, sim::Link::Side::B);
    ia.configure(Ipv4Addr(10, 0, 0, 1), 24);
    ia.set_gateway(Ipv4Addr(10, 0, 0, 2));
    ib.configure(Ipv4Addr(10, 0, 0, 2), 24);
    a.add_route(Ipv4Addr(10, 0, 0, 0), 24, ia);
    a.add_route(Ipv4Addr(198, 51, 100, 0), 24, iv); // unconfigured egress
    b.add_route(Ipv4Addr(10, 0, 0, 0), 24, ib);

    Fnv f;
    link.set_tap([&f](sim::Link::Side from, sim::TimePoint at,
                      std::span<const std::uint8_t> frame) {
        f.byte(from == sim::Link::Side::A ? 0 : 1);
        f.u64(static_cast<std::uint64_t>(at.count()));
        f.bytes(frame);
    });
    std::size_t delivered = 0;
    a.set_ip_observer([&](stack::Iface&, const net::PacketView& view,
                          std::span<const std::uint8_t>) {
        ++delivered;
        f.byte(2);
        f.u64(static_cast<std::uint64_t>(loop.now().count()));
        f.bytes({view.data(), view.total_len()});
    });
    const auto sent = [&f](bool ok) { f.byte(ok ? 0x11 : 0x10); };
    const auto step = [&loop] { loop.run_for(std::chrono::milliseconds(50)); };
    const net::Bytes payload{'p', 'i', 'n'};

    // Receivers: b echoes UDP on 9000 and TCP on 80, takes SCTP on 7 and
    // DCCP on 9 from any address; a takes loopback UDP on 6000 and TCP
    // on 7000. Nothing listens on b's UDP 4444 or TCP 81.
    auto& b_udp = b.udp_open(Ipv4Addr::any(), 9000);
    b_udp.set_receive_handler([&b_udp](net::Endpoint src,
                                       std::span<const std::uint8_t> p,
                                       const net::PacketView&) {
        b_udp.send_to(src, net::Bytes(p.begin(), p.end()));
    });
    b.tcp_listen(80).set_accept_handler([](stack::TcpSocket& s) {
        s.on_data = [&s](std::span<const std::uint8_t> d) { s.send(d); };
    });
    b.sctp_open(Ipv4Addr::any(), 7).listen();
    b.dccp_open(Ipv4Addr::any(), 9).listen();
    a.udp_open(Ipv4Addr::any(), 6000);
    a.tcp_listen(7000).set_accept_handler([](stack::TcpSocket& s) {
        s.on_data = [&s](std::span<const std::uint8_t> d) { s.send(d); };
    });

    // UDP from an unbound socket: its first datagram and the one behind
    // it park behind the ARP request for 10.0.0.2 and flush on the reply.
    auto& unbound = a.udp_open(Ipv4Addr::any(), 0);
    sent(unbound.send_to({Ipv4Addr(10, 0, 0, 2), 9000}, payload));
    sent(unbound.send_to({Ipv4Addr(10, 0, 0, 2), 9000}, {{'2'}}));
    step();
    // From a bound socket, then to a closed port (Port Unreachable).
    auto& bound = a.udp_open(Ipv4Addr(10, 0, 0, 1), 5000);
    sent(bound.send_to({Ipv4Addr(10, 0, 0, 2), 9000}, payload));
    sent(bound.send_to({Ipv4Addr(10, 0, 0, 2), 4444}, payload));
    step();
    // Unconfigured egress: nothing leaves.
    sent(unbound.send_to({Ipv4Addr(198, 51, 100, 7), 9000}, payload));
    // Iface-bound: on-link, via the iface gateway, and off-link from an
    // iface with no gateway (false, nothing on the wire).
    auto& on_ia = a.udp_open(Ipv4Addr::any(), 0, &ia);
    sent(on_ia.send_to({Ipv4Addr(10, 0, 0, 2), 9000}, payload));
    sent(on_ia.send_to({Ipv4Addr(192, 0, 2, 9), 53}, payload));
    step();
    // Broadcast from the unconfigured VLAN iface (source 0.0.0.0), from
    // the configured one, and from a socket bound to no iface (false).
    auto& dhcp = a.udp_open(Ipv4Addr::any(), 68, &iv);
    sent(dhcp.send_to({Ipv4Addr::broadcast(), 67}, payload));
    sent(on_ia.send_to({Ipv4Addr::broadcast(), 67}, payload));
    sent(unbound.send_to({Ipv4Addr::broadcast(), 67}, payload));
    step();
    iv.configure(Ipv4Addr(10, 9, 0, 1), 24);
    sent(dhcp.send_to({Ipv4Addr(192, 0, 2, 9), 53}, payload));
    sent(dhcp.send_to({Ipv4Addr::broadcast(), 67}, payload));
    step();
    // TTL 1 with an empty Record Route option (padded to 40 bytes).
    stack::UdpSocket::SendOptions opts;
    opts.ttl = 1;
    opts.ip_options = net::Ipv4Packet::make_record_route_option(9);
    sent(bound.send_to({Ipv4Addr(10, 0, 0, 2), 9000}, payload, opts));
    step();
    // Loopback: UDP from an unbound and a bound socket, then TCP.
    sent(unbound.send_to({Ipv4Addr(10, 0, 0, 1), 6000}, payload));
    sent(bound.send_to({Ipv4Addr(10, 0, 0, 1), 6000}, payload));
    auto& self = a.tcp_connect(Ipv4Addr(10, 0, 0, 1), 0,
                               {Ipv4Addr(10, 0, 0, 1), 7000});
    self.on_established = [&self, &payload] { self.send(payload); };
    step();
    // TCP: SYN, data and echo, and the RST from a port with no listener.
    auto& conn = a.tcp_connect(Ipv4Addr(10, 0, 0, 1), 0,
                               {Ipv4Addr(10, 0, 0, 2), 80});
    conn.on_established = [&conn, &payload] { conn.send(payload); };
    auto& refused = a.tcp_connect(Ipv4Addr(10, 0, 0, 1), 0,
                                  {Ipv4Addr(10, 0, 0, 2), 81});
    refused.on_error = [](const std::string&) {};
    step();
    // ICMP echo (b replies), SCTP INIT, a DCCP Request from an unbound
    // address, UDP and TCP data, all sent within one event.
    a.send_icmp(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                net::IcmpMessage::make_echo(false, 0x77, 3, payload));
    a.sctp_open(Ipv4Addr(10, 0, 0, 1), 0).connect({Ipv4Addr(10, 0, 0, 2), 7});
    a.dccp_open(Ipv4Addr::any(), 0).connect({Ipv4Addr(10, 0, 0, 2), 9});
    sent(unbound.send_to({Ipv4Addr(10, 0, 0, 2), 9000}, payload));
    conn.send(payload);
    sent(bound.send_to({Ipv4Addr(10, 0, 0, 2), 9000}, payload));
    loop.run_for(std::chrono::seconds(10));

    EXPECT_EQ(delivered, 27u);
    if (std::getenv("GATEKIT_GOLDEN_PRINT") != nullptr)
        std::printf("send path 0x%016llx (%zu delivered)\n",
                    static_cast<unsigned long long>(f.h), delivered);
    EXPECT_EQ(f.h, 0x7e7a0eab6007d5dbULL);
}

// Host::lookup_route caches two destinations, so the two directions of a
// flow looked up in turn both hit. Each must still resolve to its own
// route, and add_route or remove_routes_via must reach the next lookup of
// both cached destinations.
TEST(HostPath, RouteCacheTwoEntries) {
    using net::Ipv4Addr;
    sim::EventLoop loop;
    stack::Host host{loop, "router", net::MacAddr::from_index(1)};
    stack::Iface& lan = host.add_iface();
    stack::Iface& wan = host.add_iface_on(host.add_nic(net::MacAddr::from_index(2)));
    lan.configure(Ipv4Addr(10, 0, 0, 1), 24);
    wan.configure(Ipv4Addr(192, 0, 2, 1), 24);
    host.add_route(Ipv4Addr(10, 0, 0, 0), 24, lan);
    host.add_route(Ipv4Addr(0, 0, 0, 0), 0, wan, Ipv4Addr(192, 0, 2, 254));

    auto route_of = [&](Ipv4Addr dst) -> std::pair<const stack::Iface*,
                                                   std::optional<Ipv4Addr>> {
        const stack::Route* r = host.lookup_route(dst);
        if (r == nullptr) return {nullptr, std::nullopt};
        return {r->iface, r->via};
    };
    const Ipv4Addr inside(10, 0, 0, 7);
    const Ipv4Addr far_a(10, 0, 1, 5);
    const Ipv4Addr far_b(10, 0, 1, 200);
    const auto via_wan = std::make_pair<const stack::Iface*,
                                        std::optional<Ipv4Addr>>(
        &wan, Ipv4Addr(192, 0, 2, 254));
    const auto on_lan = std::make_pair<const stack::Iface*,
                                       std::optional<Ipv4Addr>>(
        &lan, std::nullopt);

    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(route_of(inside), on_lan);
        EXPECT_EQ(route_of(far_a), via_wan);
    }
    // A third destination takes an entry; all three still resolve.
    EXPECT_EQ(route_of(far_b), via_wan);
    EXPECT_EQ(route_of(inside), on_lan);
    EXPECT_EQ(route_of(far_a), via_wan);

    // Both far destinations are cached behind the default route; a more
    // specific prefix takes both at their next lookup.
    EXPECT_EQ(route_of(far_a), via_wan);
    EXPECT_EQ(route_of(far_b), via_wan);
    host.add_route(Ipv4Addr(10, 0, 1, 0), 24, lan, Ipv4Addr(10, 0, 0, 254));
    const auto via_lan = std::make_pair<const stack::Iface*,
                                        std::optional<Ipv4Addr>>(
        &lan, Ipv4Addr(10, 0, 0, 254));
    EXPECT_EQ(route_of(far_a), via_lan);
    EXPECT_EQ(route_of(far_b), via_lan);

    // Removing the LAN's routes sends both cached destinations back to
    // the default route, and leaves the LAN subnet to it too.
    EXPECT_EQ(route_of(inside), on_lan);
    EXPECT_EQ(route_of(far_a), via_lan);
    host.remove_routes_via(lan);
    EXPECT_EQ(route_of(inside), via_wan);
    EXPECT_EQ(route_of(far_a), via_wan);
    EXPECT_EQ(route_of(far_b), via_wan);
    host.remove_routes_via(wan);
    EXPECT_EQ(route_of(inside), std::make_pair<const stack::Iface*>(
                                    nullptr, std::optional<Ipv4Addr>()));
    EXPECT_EQ(route_of(far_a).first, nullptr);
}
