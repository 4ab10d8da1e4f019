// google-benchmark microbenchmarks of the library's hot paths: checksums,
// wire-format round trips, the event loop, and single-packet NAT
// translation. These guard the simulator's throughput (the figure benches
// push tens of millions of packets through these functions).
#include <benchmark/benchmark.h>

#include "gateway/fwd_path.hpp"
#include "gateway/nat_engine.hpp"
#include "gateway/rule_chain.hpp"
#include "l2/vlan_switch.hpp"
#include "net/checksum.hpp"
#include "net/ethernet.hpp"
#include "net/packet_pool.hpp"
#include "net/packet_view.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "sim/link.hpp"
#include "sim/timer_wheel.hpp"
#include "stack/host.hpp"
#include "stack/tcp_socket.hpp"

using namespace gatekit;

namespace {

void BM_InternetChecksum1500(benchmark::State& state) {
    std::vector<std::uint8_t> data(1500, 0xab);
    for (auto _ : state)
        benchmark::DoNotOptimize(net::internet_checksum(data));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            1500);
}
BENCHMARK(BM_InternetChecksum1500);

void BM_Crc32c1500(benchmark::State& state) {
    std::vector<std::uint8_t> data(1500, 0xab);
    for (auto _ : state) benchmark::DoNotOptimize(net::crc32c(data));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            1500);
}
BENCHMARK(BM_Crc32c1500);

void BM_ChecksumIncrementalUpdate(benchmark::State& state) {
    std::uint16_t ck = 0x1234;
    for (auto _ : state) {
        ck = net::checksum_update32(ck, 0xc0a80102u, 0x0a000101u);
        benchmark::DoNotOptimize(ck);
    }
}
BENCHMARK(BM_ChecksumIncrementalUpdate);

void BM_Ipv4RoundTrip(benchmark::State& state) {
    net::Ipv4Packet p;
    p.h.protocol = net::proto::kUdp;
    p.h.src = net::Ipv4Addr(192, 168, 1, 2);
    p.h.dst = net::Ipv4Addr(10, 0, 1, 1);
    p.payload.assign(1460, 0x5a);
    for (auto _ : state) {
        const auto bytes = p.serialize();
        benchmark::DoNotOptimize(net::Ipv4Packet::parse(bytes));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            1480);
}
BENCHMARK(BM_Ipv4RoundTrip);

void BM_TcpSegmentRoundTrip(benchmark::State& state) {
    net::TcpSegment s;
    s.src_port = 40000;
    s.dst_port = 80;
    s.flags.ack = true;
    s.payload.assign(1460, 0x5a);
    const auto src = net::Ipv4Addr(192, 168, 1, 2);
    const auto dst = net::Ipv4Addr(10, 0, 1, 1);
    for (auto _ : state) {
        const auto bytes = s.serialize(src, dst);
        benchmark::DoNotOptimize(net::TcpSegment::parse(bytes, src, dst));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            1480);
}
BENCHMARK(BM_TcpSegmentRoundTrip);

void BM_EventLoopScheduleRun(benchmark::State& state) {
    for (auto _ : state) {
        sim::EventLoop loop;
        for (int i = 0; i < 100; ++i)
            loop.after(std::chrono::microseconds(i), [] {});
        loop.run();
    }
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_EventLoopCancel(benchmark::State& state) {
    for (auto _ : state) {
        sim::EventLoop loop;
        std::vector<sim::EventId> ids;
        ids.reserve(256);
        for (int i = 0; i < 256; ++i)
            ids.push_back(loop.after(std::chrono::microseconds(i), [] {}));
        for (int i = 0; i < 256; i += 2) loop.cancel(ids[i]);
        loop.run();
    }
}
BENCHMARK(BM_EventLoopCancel);

/// TCP's RTO shape: every fired event cancels the retransmit timer and
/// re-arms it 1 ms out, as each ACK does. 63 self-rescheduling lanes
/// plus the timer keep 64 events live; the cancelled deadlines pile up
/// behind them until their time passes. Report-only; one op is one
/// fired event (steps that pass a cancelled deadline included).
class RearmBench {
public:
    RearmBench() {
        for (int lane = 0; lane < 63; ++lane) arm(lane);
        loop_.run_for(std::chrono::milliseconds(2)); // reach steady state
    }
    std::uint64_t fire_one() {
        const auto fired = loop_.events_processed();
        while (loop_.events_processed() == fired) loop_.step();
        return fired;
    }

private:
    void arm(int lane) {
        loop_.after(std::chrono::nanoseconds(1000 + 997 * (lane % 8)),
                    [this, lane] { fire(lane); });
    }
    void fire(int lane) {
        loop_.cancel(rto_);
        rto_ = loop_.after(std::chrono::milliseconds(1), [] {});
        arm(lane);
    }

    sim::EventLoop loop_;
    sim::EventId rto_;
};

void BM_EventLoopRearm(benchmark::State& state) {
    RearmBench bench;
    for (auto _ : state) benchmark::DoNotOptimize(bench.fire_one());
}
BENCHMARK(BM_EventLoopRearm);

/// Timer-wheel schedule + harvest: 4096 timers spread over 4 s of virtual
/// time, collected in 1 ms steps — the shape of a busy NAT's expiry load.
void BM_TimerWheel(benchmark::State& state) {
    for (auto _ : state) {
        sim::TimerWheel wheel;
        std::size_t fired = 0;
        for (std::uint64_t i = 0; i < 4096; ++i)
            wheel.schedule(i, sim::TimePoint{static_cast<std::int64_t>(
                                  (i % 4096) * 1'000'000 + 1)});
        for (std::int64_t ms = 1; ms <= 4096; ++ms)
            fired += wheel.collect_due(sim::TimePoint{ms * 1'000'000}).size();
        benchmark::DoNotOptimize(fired);
    }
}
BENCHMARK(BM_TimerWheel);

/// Flow keys for churn benchmarks: distinct internal endpoints so every
/// create allocates a fresh binding (and, for preserve-port devices, a
/// fresh external port).
gateway::FlowKey churn_key(std::uint32_t i) {
    return gateway::FlowKey{
        net::proto::kUdp,
        {net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(i >> 8),
                       static_cast<std::uint8_t>(i)),
         static_cast<std::uint16_t>(1024 + (i % 60000))},
        {net::Ipv4Addr(10, 0, 1, 1), 7}};
}

/// Steady-state binding churn: ~4096 live bindings, one expiring and one
/// created per simulated millisecond. Guards the cost of expiry
/// bookkeeping inside find_or_create_outbound.
void BM_BindingChurn(benchmark::State& state) {
    sim::EventLoop loop;
    gateway::DeviceProfile profile;
    profile.tag = "bench";
    profile.max_tcp_bindings = 1 << 20;
    profile.udp.initial = std::chrono::milliseconds(4096);
    gateway::BindingTable table(loop, profile, net::proto::kUdp);
    std::uint32_t n = 0;
    for (; n < 4096; ++n) {
        loop.run_for(std::chrono::milliseconds(1));
        benchmark::DoNotOptimize(table.find_or_create_outbound(churn_key(n)));
    }
    for (auto _ : state) {
        loop.run_for(std::chrono::milliseconds(1));
        benchmark::DoNotOptimize(table.find_or_create_outbound(churn_key(n)));
        ++n;
    }
}
BENCHMARK(BM_BindingChurn);

/// Repeated lookups of one hot flow while 4096 idle bindings sit in the
/// table: the per-packet fast path of a busy gateway.
void BM_BindingLookupHit(benchmark::State& state) {
    sim::EventLoop loop;
    gateway::DeviceProfile profile;
    profile.tag = "bench";
    profile.max_tcp_bindings = 1 << 20;
    profile.udp.initial = std::chrono::hours(1);
    gateway::BindingTable table(loop, profile, net::proto::kUdp);
    for (std::uint32_t i = 0; i < 4096; ++i)
        benchmark::DoNotOptimize(table.find_or_create_outbound(churn_key(i)));
    const auto hot = churn_key(17);
    for (auto _ : state)
        benchmark::DoNotOptimize(table.find_or_create_outbound(hot));
}
BENCHMARK(BM_BindingLookupHit);

/// The LAN->WAN UDP test packet used by the pipeline/NAT benches,
/// serialized once. Returned as a full wire frame (Ethernet header +
/// IPv4/UDP datagram) exactly as it would arrive from the LAN link.
net::Bytes make_udp_wire_frame() {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = net::Ipv4Addr(192, 168, 1, 100);
    pkt.h.dst = net::Ipv4Addr(10, 0, 1, 1);
    net::UdpDatagram d;
    d.src_port = 40000;
    d.dst_port = 7;
    d.payload.assign(1400, 0x5a);
    pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);
    net::EthernetFrame f;
    f.dst = net::MacAddr::from_index(1);
    f.src = net::MacAddr::from_index(2);
    f.ethertype = net::kEtherTypeIpv4;
    f.payload = pkt.serialize();
    return f.serialize();
}

/// Frame sink that parks the received buffer for the next iteration.
/// The forwarding datapath never allocates per packet: the gateway
/// reuses the frame the link delivered, so the bench recycles the same
/// buffer and restores only the header bytes the rewrite touched.
struct RecyclingSink : sim::FrameSink {
    sim::Frame parked;
    std::uint64_t bytes = 0;
    void frame_in(sim::Frame f) override {
        bytes += f.size();
        parked = std::move(f);
    }
};

/// End-to-end zero-copy forwarding pipeline: pooled frame in, one
/// PacketView parse, in-place NAT rewrite, forwarding service model,
/// link transmission of the same buffer, sink recycling it into the
/// pool. This is the datapath a LAN->WAN UDP packet takes through
/// HomeGateway's NIC frame hook, minus routing/ARP (constant-time
/// lookups).
void BM_ForwardPipelineUdp(benchmark::State& state) {
    sim::EventLoop loop;
    gateway::DeviceProfile profile;
    profile.tag = "bench";
    gateway::NatEngine nat(loop, profile);
    nat.set_wan_addr(net::Ipv4Addr(10, 0, 1, 10));
    gateway::FwdPath fwd(loop, profile.fwd);
    sim::Link link(loop, 100'000'000, std::chrono::microseconds(10));
    RecyclingSink sink;
    link.attach(sim::Link::Side::B, sink);

    const net::Bytes wire = make_udp_wire_frame();

    for (auto _ : state) {
        sim::Frame frame = std::move(sink.parked);
        // Steady state recycles the delivered buffer; only the header
        // region the rewrite touched needs restoring (eth 14 + ip 20 +
        // udp 8).
        if (frame.size() != wire.size())
            frame.assign(wire.begin(), wire.end());
        else
            std::copy(wire.begin(), wire.begin() + 42, frame.begin());
        auto v = net::PacketView::parse(
            std::span<std::uint8_t>(frame.data() + 14, frame.size() - 14));
        if (nat.outbound(*v) != gateway::NatEngine::Verdict::kForwarded) {
            state.SkipWithError("translation dropped the packet");
            return;
        }
        fwd.submit(gateway::Direction::Up, v->total_len(),
                   [&link, f = std::move(frame)]() mutable {
                       link.send(sim::Link::Side::A, std::move(f));
                   });
        loop.run();
    }
    benchmark::DoNotOptimize(sink.bytes);
    state.SetBytesProcessed(static_cast<std::int64_t>(sink.bytes));
}
BENCHMARK(BM_ForwardPipelineUdp);

/// One full-size tagged frame over a Link and through a VLAN switch
/// hop, trunk -> access, as every TCP-2 data frame from the test client
/// travels. The frame is refilled from the wire template each iteration
/// (one 1518-byte copy into the recycled buffer); the hop itself reads
/// the header in place and strips the tag. Report-only.
void BM_VlanSwitchHop(benchmark::State& state) {
    sim::EventLoop loop;
    l2::VlanSwitch sw(loop);
    sim::Link trunk(loop, 100'000'000, std::chrono::microseconds(1));
    sim::Link access(loop, 100'000'000, std::chrono::microseconds(1));
    RecyclingSink far_end, near_end;
    sw.connect(sw.add_trunk_port(), trunk, sim::Link::Side::B);
    sw.connect(sw.add_access_port(10), access, sim::Link::Side::B);
    trunk.attach(sim::Link::Side::A, near_end);
    access.attach(sim::Link::Side::A, far_end);

    net::EthernetFrame f;
    f.dst = net::MacAddr::from_index(2);
    f.src = net::MacAddr::from_index(1);
    f.vlan_id = 10;
    f.ethertype = net::kEtherTypeIpv4;
    f.payload.assign(1500, 0x5a);
    const net::Bytes wire = f.serialize();
    // Teach the switch where the destination lives, so the hop is a
    // unicast forward rather than a flood.
    net::EthernetFrame hello = f;
    std::swap(hello.dst, hello.src);
    hello.vlan_id.reset();
    access.send(sim::Link::Side::A, hello.serialize());
    loop.run();

    for (auto _ : state) {
        sim::Frame frame = std::move(far_end.parked);
        frame.assign(wire.begin(), wire.end());
        trunk.send(sim::Link::Side::A, std::move(frame));
        loop.run();
    }
    benchmark::DoNotOptimize(far_end.bytes);
    state.SetBytesProcessed(static_cast<std::int64_t>(far_end.bytes));
}
BENCHMARK(BM_VlanSwitchHop);

/// One in-order 1460-byte data segment, tagged as the test client
/// receives it, into an established TcpSocket: NetIf demux, PacketView,
/// TCP checksum and demux, on_data, and the ACK written into a pooled
/// frame and put on the link. The frame is refilled from a template and
/// its sequence number advanced with an incremental checksum update.
/// Report-only.
void BM_HostTcpSegmentRx(benchmark::State& state) {
    sim::EventLoop loop;
    sim::Link link(loop, 100'000'000, std::chrono::microseconds(1));
    stack::Host host(loop, "bench", net::MacAddr::from_index(1));
    RecyclingSink peer;
    host.nic().connect(link, sim::Link::Side::A);
    link.attach(sim::Link::Side::B, peer);
    auto& iface = host.add_iface(std::uint16_t{10});
    const net::Ipv4Addr me(192, 168, 1, 100), them(10, 0, 1, 1);
    const net::MacAddr them_mac = net::MacAddr::from_index(2);
    iface.configure(me, 24);
    iface.set_gateway(net::Ipv4Addr(192, 168, 1, 1));
    iface.arp_cache().insert(net::Ipv4Addr(192, 168, 1, 1), them_mac);
    host.add_route(net::Ipv4Addr(10, 0, 1, 0), 24, iface,
                   net::Ipv4Addr(192, 168, 1, 1));
    std::uint64_t delivered = 0;
    host.tcp_listen(5001).set_accept_handler(
        [&delivered](stack::TcpSocket& conn) {
            conn.on_data = [&delivered](std::span<const std::uint8_t> d) {
                delivered += d.size();
            };
        });

    const auto frame_of = [&](const net::TcpSegment& seg) {
        net::Ipv4Packet pkt;
        pkt.h.protocol = net::proto::kTcp;
        pkt.h.src = them;
        pkt.h.dst = me;
        pkt.payload = seg.serialize(them, me);
        net::EthernetFrame f;
        f.dst = host.nic().mac();
        f.src = them_mac;
        f.vlan_id = 10;
        f.ethertype = net::kEtherTypeIpv4;
        f.payload = pkt.serialize();
        return f.serialize();
    };
    net::TcpSegment seg;
    seg.src_port = 40000;
    seg.dst_port = 5001;
    seg.seq = 1000;
    seg.flags.syn = true;
    host.nic().frame_in(frame_of(seg));
    loop.run_for(std::chrono::milliseconds(1));
    const auto synack = net::Ipv4Packet::parse(
        net::EthernetFrame::parse(peer.parked).payload);
    const std::uint32_t iss =
        net::TcpSegment::parse(synack.payload, me, them).seq;
    seg.flags = {};
    seg.flags.ack = true;
    seg.seq = 1001;
    seg.ack = iss + 1;
    host.nic().frame_in(frame_of(seg));
    seg.payload.assign(1460, 0x5a);
    const net::Bytes wire = frame_of(seg);
    const std::size_t tcp_at = 18 + 20;

    std::uint32_t seq = seg.seq;
    for (auto _ : state) {
        sim::Frame frame = host.nic().pool().acquire();
        frame.assign(wire.begin(), wire.end());
        // Advance the sequence number; patch the checksum to match.
        const auto ck = static_cast<std::uint16_t>(
            (frame[tcp_at + 16] << 8) | frame[tcp_at + 17]);
        const std::uint16_t fixed =
            net::checksum_update32(ck, seg.seq, seq);
        for (int i = 0; i < 4; ++i)
            frame[tcp_at + 4 + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(seq >> (24 - 8 * i));
        frame[tcp_at + 16] = static_cast<std::uint8_t>(fixed >> 8);
        frame[tcp_at + 17] = static_cast<std::uint8_t>(fixed);
        host.nic().frame_in(std::move(frame));
        loop.run();
        seq += 1460;
    }
    if (delivered != 1460 * static_cast<std::uint64_t>(state.iterations()))
        state.SkipWithError("segments were not delivered in order");
    state.SetBytesProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_HostTcpSegmentRx);

/// The same pipeline with a metrics registry and tracer bound: bounds the
/// *enabled* cost of observability on the per-packet path. (The disabled
/// cost is covered by BM_ForwardPipelineUdp itself, whose committed
/// baseline predates the instrumentation — the null-pointer branches must
/// keep it within the regression gate.)
void BM_ForwardPipelineUdpObserved(benchmark::State& state) {
    sim::EventLoop loop;
    obs::MetricsRegistry reg;
    obs::Tracer tracer(loop);
    obs::FlightRecorder recorder;
    tracer.add_sink(&recorder);
    gateway::DeviceProfile profile;
    profile.tag = "bench";
    gateway::NatEngine nat(loop, profile);
    nat.bind_observability(reg, "bench#1");
    nat.set_wan_addr(net::Ipv4Addr(10, 0, 1, 10));
    gateway::FwdPath fwd(loop, profile.fwd);
    fwd.bind_observability(reg, "bench#1");
    sim::Link link(loop, 100'000'000, std::chrono::microseconds(10));
    link.bind_observability(&reg, &tracer, "bench#1.wan");
    RecyclingSink sink;
    link.attach(sim::Link::Side::B, sink);

    const net::Bytes wire = make_udp_wire_frame();

    for (auto _ : state) {
        sim::Frame frame = std::move(sink.parked);
        if (frame.size() != wire.size())
            frame.assign(wire.begin(), wire.end());
        else
            std::copy(wire.begin(), wire.begin() + 42, frame.begin());
        auto v = net::PacketView::parse(
            std::span<std::uint8_t>(frame.data() + 14, frame.size() - 14));
        if (nat.outbound(*v) != gateway::NatEngine::Verdict::kForwarded) {
            state.SkipWithError("translation dropped the packet");
            return;
        }
        fwd.submit(gateway::Direction::Up, v->total_len(),
                   [&link, f = std::move(frame)]() mutable {
                       link.send(sim::Link::Side::A, std::move(f));
                   });
        loop.run();
    }
    benchmark::DoNotOptimize(sink.bytes);
    state.SetBytesProcessed(static_cast<std::int64_t>(sink.bytes));
}
BENCHMARK(BM_ForwardPipelineUdpObserved);

/// The NAT translation step alone, on the in-place path: the header
/// region is restored each iteration (the packet "arrives" anew), then
/// one view parse plus the rewrite. Binding lookup is a steady-state
/// hit after the first iteration.
void BM_NatOutboundUdp(benchmark::State& state) {
    sim::EventLoop loop;
    gateway::DeviceProfile profile;
    profile.tag = "bench";
    gateway::NatEngine nat(loop, profile);
    nat.set_wan_addr(net::Ipv4Addr(10, 0, 1, 10));
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = net::Ipv4Addr(192, 168, 1, 100);
    pkt.h.dst = net::Ipv4Addr(10, 0, 1, 1);
    net::UdpDatagram d;
    d.src_port = 40000;
    d.dst_port = 7;
    d.payload.assign(1400, 0x5a);
    pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);
    net::Bytes dgram = pkt.serialize();
    // IPv4 header (20, no options) + UDP header (8): everything the
    // rewrite touches.
    std::array<std::uint8_t, 28> pristine{};
    std::copy(dgram.begin(), dgram.begin() + 28, pristine.begin());
    for (auto _ : state) {
        std::copy(pristine.begin(), pristine.end(), dgram.begin());
        auto v = net::PacketView::parse(
            std::span<std::uint8_t>(dgram.data(), dgram.size()));
        benchmark::DoNotOptimize(nat.outbound(*v));
    }
}
BENCHMARK(BM_NatOutboundUdp);

/// Arena round trip with a warm free list: the per-packet allocation
/// cost the pool replaces malloc/free with.
void BM_PacketPoolAcquireRelease(benchmark::State& state) {
    net::PacketPool pool;
    pool.release(pool.acquire()); // warm the free list
    for (auto _ : state) {
        sim::Frame f = pool.acquire();
        benchmark::DoNotOptimize(f.data());
        pool.release(std::move(f));
    }
}
BENCHMARK(BM_PacketPoolAcquireRelease);

/// Single-pass ingress classification into a PacketView (offsets only,
/// no payload copies, no checksum verification -- that stays where the
/// legacy path does it).
void BM_ParseHeadersView(benchmark::State& state) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = net::Ipv4Addr(192, 168, 1, 100);
    pkt.h.dst = net::Ipv4Addr(10, 0, 1, 1);
    net::UdpDatagram d;
    d.src_port = 40000;
    d.dst_port = 7;
    d.payload.assign(1400, 0x5a);
    pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);
    net::Bytes dgram = pkt.serialize();
    for (auto _ : state) {
        auto v = net::PacketView::parse(
            std::span<std::uint8_t>(dgram.data(), dgram.size()));
        benchmark::DoNotOptimize(v->src_port());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dgram.size()));
}
BENCHMARK(BM_ParseHeadersView);

/// What the legacy ingress path pays for the same packet: structured
/// IPv4 parse (payload copy) plus UDP parse with checksum verification.
void BM_ParseHeadersLegacy(benchmark::State& state) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = net::Ipv4Addr(192, 168, 1, 100);
    pkt.h.dst = net::Ipv4Addr(10, 0, 1, 1);
    net::UdpDatagram d;
    d.src_port = 40000;
    d.dst_port = 7;
    d.payload.assign(1400, 0x5a);
    pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);
    net::Bytes dgram = pkt.serialize();
    for (auto _ : state) {
        auto parsed = net::Ipv4Packet::parse(dgram);
        auto udp = net::UdpDatagram::parse(parsed.payload, parsed.h.src,
                                           parsed.h.dst);
        benchmark::DoNotOptimize(udp.src_port);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dgram.size()));
}
BENCHMARK(BM_ParseHeadersLegacy);

/// A chain of `n` rules none of which match the probe packet (every
/// packet walks the full chain and falls through to the default
/// verdict) -- the netfilter worst case Niemann et al. measured.
gateway::RuleChain make_miss_chain(std::size_t n) {
    gateway::RuleChain chain;
    for (std::size_t i = 0; i < n; ++i) {
        gateway::Rule r;
        r.proto = net::proto::kUdp;
        r.dport = {static_cast<std::uint16_t>(20000 + i),
                   static_cast<std::uint16_t>(20000 + i)};
        r.verdict = gateway::RuleVerdict::kDrop;
        chain.add_rule(r);
    }
    return chain;
}

gateway::RuleChain::Key make_probe_key() {
    gateway::RuleChain::Key key;
    key.proto = net::proto::kUdp;
    key.src = net::Ipv4Addr(192, 168, 1, 100).value();
    key.dst = net::Ipv4Addr(10, 0, 1, 1).value();
    key.sport = 40000;
    key.dport = 7;
    return key;
}

void BM_RuleChainSequential(benchmark::State& state) {
    auto chain = make_miss_chain(static_cast<std::size_t>(state.range(0)));
    const auto key = make_probe_key();
    for (auto _ : state) benchmark::DoNotOptimize(chain.evaluate(key));
}
BENCHMARK(BM_RuleChainSequential)->Arg(10)->Arg(100)->Arg(1000);

void BM_RuleChainCompiled(benchmark::State& state) {
    auto chain = make_miss_chain(static_cast<std::size_t>(state.range(0)));
    const auto key = make_probe_key();
    benchmark::DoNotOptimize(chain.evaluate_compiled(key)); // compile once
    for (auto _ : state)
        benchmark::DoNotOptimize(chain.evaluate_compiled(key));
}
BENCHMARK(BM_RuleChainCompiled)->Arg(10)->Arg(100)->Arg(1000);

/// Live counter increment through the null-safe helper.
void BM_MetricsCounterInc(benchmark::State& state) {
    obs::MetricsRegistry reg;
    obs::Counter* c = reg.counter("bench.counter", {{"device", "bench#1"}});
    for (auto _ : state) {
        obs::inc(c);
        benchmark::DoNotOptimize(c->value);
    }
}
BENCHMARK(BM_MetricsCounterInc);

/// The disabled path: every instrumented component pays exactly this (one
/// untaken branch on a null pointer) per would-be sample.
void BM_MetricsDisabledInc(benchmark::State& state) {
    obs::Counter* c = nullptr;
    benchmark::DoNotOptimize(c);
    for (auto _ : state) {
        obs::inc(c);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_MetricsDisabledInc);

/// Log2-bucketed histogram observe: frexp + linear sub-bucket index +
/// count bump. This is what the hot-path latency sites (packet bytes,
/// granted timeouts) pay when metrics are attached.
void BM_HistogramLogObserve(benchmark::State& state) {
    obs::MetricsRegistry reg;
    obs::LogHistogram* h =
        reg.log_histogram("bench.sketch", {{"device", "bench#1"}});
    // Pre-size across the value range so steady state measures observe,
    // not vector growth.
    double v = 1.0;
    for (auto _ : state) {
        obs::observe(h, v);
        v = v < 1e9 ? v * 1.7 : 1.0;
        benchmark::DoNotOptimize(h->total);
    }
}
BENCHMARK(BM_HistogramLogObserve);

/// Schedule+fire cycles with NO advance hook installed — the per-event
/// cost every campaign pays for the time-series sink's existence (one
/// untaken null check in EventLoop::fire). Must track
/// BM_EventLoopScheduleRun within noise.
void BM_TimeseriesSampleDisabled(benchmark::State& state) {
    for (auto _ : state) {
        sim::EventLoop loop;
        for (int i = 0; i < 100; ++i)
            loop.after(std::chrono::microseconds(i), [] {});
        loop.run();
    }
}
BENCHMARK(BM_TimeseriesSampleDisabled);

/// Trace event construction + emit into a ring-buffer flight recorder,
/// the sink every traced run carries.
void BM_TraceEmit(benchmark::State& state) {
    sim::EventLoop loop;
    obs::Tracer tracer(loop);
    obs::FlightRecorder recorder;
    tracer.add_sink(&recorder);
    for (auto _ : state) {
        auto ev = tracer.event("bench#1", "link", "impair.lost");
        ev.with("direction", "a2b");
        ev.with("bytes", std::int64_t{1500});
        tracer.emit(ev);
    }
    benchmark::DoNotOptimize(recorder.size());
}
BENCHMARK(BM_TraceEmit);

} // namespace

BENCHMARK_MAIN();
