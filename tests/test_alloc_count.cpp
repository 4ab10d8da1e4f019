// Exact work counts for the observability binding, the NAT444 datapath
// and a bulk TCP transfer. Wall-clock timings on a shared host swing too far to gate a
// change, but the number of heap allocations a fixed piece of work makes
// repeats exactly, so it is pinned here. The executable replaces the global operator new with a
// counting one (no LD_PRELOAD); it is built only without sanitizers,
// whose runtimes own the allocator.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "devices/population.hpp"
#include "devices/profiles.hpp"
#include "harness/testbed.hpp"
#include "obs/obs.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"

namespace {

std::uint64_t g_allocations = 0;
/// Allocations of 64 KiB and more: stream buffers, not packet bookkeeping.
std::uint64_t g_large_allocations = 0;

void* counted_alloc(std::size_t n) {
    ++g_allocations;
    if (n >= 64 * 1024) ++g_large_allocations;
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

// One population_campaign device as ShardScheduler::run builds it: the
// default population's first gateway with its two firewall rules, a
// one-device testbed under its roster number, and the shard's
// Observability bound after the device is added.
TEST(AllocCount, PopulationDeviceAttachObservability) {
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
    // its entries in a chunked arena. A change that moves this count
    // says why; a decrease re-pins it.
    EXPECT_EQ(obs.metrics().size(), 73u);
    EXPECT_EQ(attach, 116u);
}

// The first calibrated gateway behind a default CGN, warmed up (leases,
// ARP caches, a binding at each NAT), then a fixed run of UDP datagrams
// each way through both gateways' frame hooks, in bursts of ten so that
// the home gateway's FwdPath both starts frames at once and queues them.
// The count covers the two hosts' sends and receives as well; what it
// pins is that forwarding adds no allocation per frame beyond what the
// datapath already makes, such as FwdPath's queue node every few frames.
TEST(AllocCount, Nat444UdpExchange) {
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
    // UDP headers in place; 682 (600 fewer) now that send_to takes its
    // payload as a span instead of a by-value copy. Of those, 600 are the
    // receive-side payload copies in UdpDatagram::parse. A change that
    // moves this count says why.
    EXPECT_EQ(exchange, 682u);
}

// TCP-2's shape without its pacing: 1 MiB from the test client to the
// test server through the first calibrated gateway, then, once the first
// connection has been reaped, the same again on a new connection. The
// client writes each transfer in one call, so its send ring grows once to
// 1 MiB; when the socket dies, its Host keeps the ring and the second
// connection takes it.
TEST(AllocCount, TcpBulkTransfer) {
    sim::EventLoop loop;
    harness::Testbed tb(loop);
    const int i = tb.add_device(devices::all_profiles()[0]);
    tb.start_and_wait();
    auto& slot = tb.slot(i);

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

    struct Count {
        std::uint64_t all;
        std::uint64_t large;
    };
    auto transfer = [&] {
        const std::uint64_t before = g_allocations;
        const std::uint64_t large_before = g_large_allocations;
        auto& conn = tb.client().tcp_connect(slot.client_addr, 0,
                                             {slot.server_addr, 5001});
        conn.on_established = [&conn, &payload] {
            conn.send(payload);
            conn.close();
        };
        // Long enough for the transfer and the client's TIME-WAIT.
        loop.run_for(std::chrono::seconds(10));
        return Count{g_allocations - before,
                     g_large_allocations - large_before};
    };
    const Count first = transfer();
    ASSERT_EQ(received, kBytes);
    const Count second = transfer();
    ASSERT_EQ(received, 2 * kBytes);

    // The first connection allocates its 1 MiB ring; the second takes the
    // spare its Host kept, and allocates no stream buffer at all.
    EXPECT_EQ(first.large, 1u);
    EXPECT_EQ(second.large, 0u);
    // 722 and 603 while the send queue was a vector per socket (the
    // second transfer allocated its own 1 MiB again). The rest are
    // connection and datapath bookkeeping, such as the reassembly queue's
    // entries and FwdPath's queue nodes. A change that moves these counts
    // says why.
    EXPECT_EQ(first.all, 722u);
    EXPECT_EQ(second.all, 602u);
}
