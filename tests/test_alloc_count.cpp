// Exact work counts for the observability binding, the NAT444 datapath
// and bulk TCP transfers. Wall-clock timings on a shared host swing too far to gate a
// change, but the number of heap allocations a fixed piece of work makes
// repeats exactly, so it is pinned here. The executable replaces the global operator new with a
// counting one (no LD_PRELOAD); it is built only without sanitizers,
// whose runtimes own the allocator. Each test runs on a fresh thread, so
// the thread's RingStash starts empty whatever ran before it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <string>
#include <thread>

#include "devices/population.hpp"
#include "devices/profiles.hpp"
#include "harness/testbed.hpp"
#include "harness/testrund.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"

namespace {

std::uint64_t g_allocations = 0;
/// Allocations of 64 KiB and more: stream buffers, not packet bookkeeping.
std::uint64_t g_large_allocations = 0;
/// Allocations of 4 KiB and more.
std::uint64_t g_page_allocations = 0;

void* counted_alloc(std::size_t n) {
    ++g_allocations;
    if (n >= 64 * 1024) ++g_large_allocations;
    if (n >= 4 * 1024) ++g_page_allocations;
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    ++g_allocations;
    return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    ++g_allocations;
    return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace gatekit;

namespace {

/// Run `body` on a new thread and wait for it: its RingStash is empty.
template <class F> void on_fresh_thread(F&& body) {
    std::thread t(std::forward<F>(body));
    t.join();
}

} // namespace

// One population_campaign device as ShardScheduler::run builds it: the
// default population's first gateway with its two firewall rules, a
// one-device testbed under its roster number, and the shard's
// Observability bound after the device is added.
TEST(AllocCount, PopulationDeviceAttachObservability) {
    on_fresh_thread([] {
        devices::PopulationSpec spec;
        spec.count = 1;
        spec.firewall_rules = 2;
        const auto roster = devices::sample_roster(spec);

        sim::EventLoop loop;
        obs::Observability obs(loop);
        harness::Testbed tb(loop);
        tb.add_device(roster[0], 1);

        const std::uint64_t before = g_allocations;
        tb.attach_observability(&obs);
        const std::uint64_t attach = g_allocations - before;

        // 461 before the registry interned names and label sets and kept
        // its entries in a chunked arena; 116 while the rule chain's
        // totals were labelled `chain`, a name and a label set that no
        // other series shares. A change that moves this count
        // says why; a decrease re-pins it.
        EXPECT_EQ(obs.metrics().size(), 73u);
        EXPECT_EQ(attach, 114u);
    });
}

// The first calibrated gateway behind a default CGN, warmed up (leases,
// ARP caches, a binding at each NAT), then a fixed run of UDP datagrams
// each way through both gateways' frame hooks, in bursts of ten so that
// the home gateway's FwdPath both starts frames at once and queues them.
// The count covers the two hosts' sends and receives as well; what it
// pins is that forwarding adds no allocation per frame beyond what the
// datapath already makes, such as FwdPath's queue node every few frames.
TEST(AllocCount, Nat444UdpExchange) {
    on_fresh_thread([] {
        sim::EventLoop loop;
        harness::Testbed tb(loop);
        const int g = tb.add_cgn_group();
        const int i = tb.add_device_behind_cgn(devices::all_profiles()[0], g);
        tb.start_and_wait();
        auto& slot = tb.slot(i);

        net::Endpoint peer;
        std::uint64_t at_server = 0;
        std::uint64_t at_client = 0;
        auto& server = tb.server().udp_open(net::Ipv4Addr::any(), 7000);
        server.set_receive_handler([&](net::Endpoint src,
                                       std::span<const std::uint8_t>,
                                       const net::PacketView&) {
            peer = src;
            ++at_server;
    });
    auto& client =
        tb.client().udp_open(slot.client_addr, 46000, slot.client_if);
    client.set_receive_handler([&](net::Endpoint,
                                   std::span<const std::uint8_t>,
                                   const net::PacketView&) { ++at_client; });
    const net::Bytes payload(64, 0x5a);
    client.send_to({slot.server_addr, 7000}, payload);
    loop.run_for(std::chrono::milliseconds(50));
    server.send_to(peer, payload);
    loop.run_for(std::chrono::milliseconds(50));
    ASSERT_EQ(at_server, 1u);
    ASSERT_EQ(at_client, 1u);

    constexpr int kDatagrams = 300;
    const std::uint64_t before = g_allocations;
    for (int k = 0; k < kDatagrams / 10; ++k) {
        for (int j = 0; j < 10; ++j) {
            client.send_to({slot.server_addr, 7000}, payload);
            server.send_to(peer, payload);
        }
        loop.run_for(std::chrono::milliseconds(10));
    }
    loop.run_for(std::chrono::milliseconds(50));
    const std::uint64_t exchange = g_allocations - before;

    EXPECT_EQ(at_server, 1u + kDatagrams);
    EXPECT_EQ(at_client, 1u + kDatagrams);
    // 2482 while each UDP send built a UdpDatagram buffer and an
    // Ipv4Packet buffer before copying them into the pool frame; 1282
    // (600 sends x 2 fewer) once Host::send_datagram wrote the IPv4 and
    // UDP headers in place; 682 (600 fewer) once send_to took its
    // payload as a span instead of a by-value copy; NEW_NAT now that
    // FwdPath queues jobs in a ring instead of a deque's nodes. Of those,
    // 600 are the receive-side payload copies in UdpDatagram::parse. A
    // change that moves this count says why.
    EXPECT_EQ(exchange, 623u);
    });
}

// TCP-2's shape without its pacing: 1 MiB from the test client to the
// test server through one gateway, then, once the first connection has
// been reaped, the same again on a new connection. The client writes each
// transfer in one call, so its send ring grows once to 1 MiB; when the
// socket dies, the thread's RingStash keeps the ring and the second
// connection takes it.
namespace {

struct BulkPair {
    struct Count {
        std::uint64_t all = 0;
        std::uint64_t large = 0; ///< 64 KiB and more
        std::uint64_t page = 0;  ///< 4 KiB and more
        std::uint64_t forwarded = 0;
        std::uint64_t dropped = 0;
    };
    Count first;
    Count second;
};

BulkPair bulk_pair(const gateway::DeviceProfile& profile) {
    sim::EventLoop loop;
    harness::Testbed tb(loop);
    const int i = tb.add_device(profile);
    tb.start_and_wait();
    auto& slot = tb.slot(i);
    auto& fwd = slot.gw->fwd();
    using gateway::Direction;

    constexpr std::size_t kBytes = 1 << 20;
    std::uint64_t received = 0;
    auto& lst = tb.server().tcp_listen(5001);
    lst.set_accept_handler([&](stack::TcpSocket& conn) {
        conn.on_data = [&](std::span<const std::uint8_t> d) {
            received += d.size();
        };
        conn.on_remote_close = [&conn] { conn.close(); };
    });
    const net::Bytes payload(kBytes, 0x5a);

    auto transfer = [&] {
        BulkPair::Count c{g_allocations, g_large_allocations,
                          g_page_allocations,
                          fwd.forwarded(Direction::Up) +
                              fwd.forwarded(Direction::Down),
                          fwd.drops(Direction::Up) +
                              fwd.drops(Direction::Down)};
        auto& conn = tb.client().tcp_connect(slot.client_addr, 0,
                                             {slot.server_addr, 5001});
        conn.on_established = [&conn, &payload] {
            conn.send(payload);
            conn.close();
        };
        // Long enough for the transfer and the client's TIME-WAIT.
        loop.run_for(std::chrono::seconds(10));
        return BulkPair::Count{
            g_allocations - c.all, g_large_allocations - c.large,
            g_page_allocations - c.page,
            fwd.forwarded(Direction::Up) + fwd.forwarded(Direction::Down) -
                c.forwarded,
            fwd.drops(Direction::Up) + fwd.drops(Direction::Down) -
                c.dropped};
    };
    BulkPair out;
    out.first = transfer();
    EXPECT_EQ(received, kBytes);
    out.second = transfer();
    EXPECT_EQ(received, 2 * kBytes);
    return out;
}

} // namespace

TEST(AllocCount, TcpBulkTransfer) {
    BulkPair r;
    on_fresh_thread([&] { r = bulk_pair(devices::all_profiles()[0]); });

    // The first connection allocates its 1 MiB ring; the second takes the
    // one the stash kept, and allocates no stream buffer at all.
    EXPECT_EQ(r.first.large, 1u);
    EXPECT_EQ(r.second.large, 0u);
    // 722 and 603 while the send queue was a vector per socket (the
    // second transfer allocated its own 1 MiB again); 722 and 602 with a
    // ring its Host kept; 441 and 316 now that FwdPath queues jobs
    // in rings and reassembly keeps no tree nodes. The rest are
    // connection and datapath bookkeeping. A change that moves these
    // counts says why.
    EXPECT_EQ(r.first.all, 441u);
    EXPECT_EQ(r.second.all, 316u);
}

// The same pair through a gateway whose upstream queue is shallow enough
// to drop, so the server's reassembly runs. On the warm thread the second
// transfer allocates no page-sized block (no send ring, FwdPath ring or
// reassembly index) and no per-frame queue or reassembly node: what is
// left is connection bookkeeping and PacketPool fallbacks.
TEST(AllocCount, WarmBulkTransferThroughDroppingQueue) {
    auto profile = devices::all_profiles()[0];
    profile.fwd.buffer_up_bytes = 24 * 1024;
    BulkPair r;
    on_fresh_thread([&] { r = bulk_pair(profile); });

    EXPECT_GT(r.second.dropped, 0u);
    EXPECT_EQ(r.second.page, 0u);
    std::printf("second transfer: %llu allocations for %llu forwarded "
                "frames (%.4f per frame), %llu drops\n",
                static_cast<unsigned long long>(r.second.all),
                static_cast<unsigned long long>(r.second.forwarded),
                static_cast<double>(r.second.all) /
                    static_cast<double>(r.second.forwarded),
                static_cast<unsigned long long>(r.second.dropped));
    // 1402 allocations (70 of them of 4 KiB or more) for 1443 forwarded
    // frames, 0.97 per frame, while FwdPath queued jobs in deques,
    // reassembly kept map nodes and joined a filled hole into one buffer,
    // and go-back-N never resent a lone lost FIN; 557 for 1447 frames,
    // 0.38 per frame, now. The 4 frames more are the resent FIN's
    // exchange. A change that moves this count says why.
    EXPECT_EQ(r.second.all, 557u);
}

// Validating the merged time series of a 50-device population campaign
// (the population bench's units and two firewall rules per gateway). The
// reader parses one line at a time through report::json_parse, so the
// count is that of the JSON values a line becomes, plus the reader's
// per-stream state.
TEST(AllocCount, ValidateTimeseries) {
    on_fresh_thread([] {
        devices::PopulationSpec spec;
        spec.count = 50;
        spec.firewall_rules = 2;
        harness::ShardScheduler::Options opts;
        opts.roster = devices::sample_roster(spec);
        opts.config.udp1 = opts.config.udp4 = true;
        opts.config.tcp1 = opts.config.stun = true;
        opts.config.udp.repetitions = 1;
        opts.config.tcp_timeout.repetitions = 1;
        opts.timeseries_path = "alloc_count_timeseries.jsonl";
        harness::ShardScheduler::run(opts);
        std::string text;
        {
            std::ifstream file(opts.timeseries_path, std::ios::binary);
            text.assign(std::istreambuf_iterator<char>(file), {});
        }
        std::remove(opts.timeseries_path.c_str());
        std::istringstream in(text);
        std::string error;

        const std::uint64_t before = g_allocations;
        const bool ok = obs::validate_timeseries(in, &error);
        const std::uint64_t validate = g_allocations - before;

        EXPECT_TRUE(ok) << error;
        std::printf("%zu bytes in %lld lines: %llu allocations\n",
                    text.size(),
                    static_cast<long long>(
                        std::count(text.begin(), text.end(), '\n')),
                    static_cast<unsigned long long>(validate));
        // v1, whose samples were {"t_ns":…,"v":[[id,value],…]} and whose
        // every segment declared its own series: 62146 allocations for
        // 344681 bytes in 4412 lines. v2 (flat [dt,id,value,…] lines,
        // one declaration per series per stream): 17503 for 124805
        // bytes in 3581 lines. A change that moves this count says why.
        EXPECT_EQ(validate, 17503u);
    });
}
