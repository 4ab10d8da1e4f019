// RingStash: the per-thread store of TCP send rings. Its policy (keep the
// largest, hand out the smallest that covers a need) and the claim that
// it holds storage only: a bulk transfer gives the same result on a cold
// or a warm stash, on one thread or on two at once. The `stash` label is
// in the sanitize filter (parked rings are poisoned) and the tsan filter
// (each thread has its own stash, and nothing in it is shared).
#include <gtest/gtest.h>

#include <thread>

#include "devices/profiles.hpp"
#include "harness/testbed.hpp"
#include "stack/ring_stash.hpp"
#include "stack/tcp_socket.hpp"

using namespace gatekit;
using stack::RingStash;
using stack::SendRing;

namespace {

SendRing ring_of(std::size_t capacity) {
    return {std::make_unique<std::uint8_t[]>(capacity), capacity};
}

} // namespace

TEST(RingStash, HandsOutTheSmallestThatCovers) {
    RingStash stash;
    for (std::size_t c : {8192u, 2048u, 65536u}) stash.keep(ring_of(c));
    EXPECT_EQ(stash.parked(), 3u);
    EXPECT_EQ(stash.take(3000).capacity, 8192u);
    EXPECT_EQ(stash.take(1).capacity, 2048u);
    // Nothing covers it: a new ring of bit_ceil(need).
    EXPECT_EQ(stash.take(70000).capacity, 131072u);
    EXPECT_EQ(stash.parked(), 1u);
    EXPECT_EQ(stash.take(65536).capacity, 65536u);
    EXPECT_EQ(stash.parked(), 0u);
}

TEST(RingStash, KeepsTheLargest) {
    RingStash stash;
    for (std::size_t c : {4096u, 1024u, 16384u, 2048u, 8192u, 512u})
        stash.keep(ring_of(c));
    stash.keep(SendRing{}); // no storage: nothing to park
    EXPECT_EQ(stash.parked(), RingStash::kMaxRings);
    EXPECT_EQ(stash.parked_bytes(), 16384u + 8192u + 4096u + 2048u);
    EXPECT_EQ(stash.take(1).capacity, 2048u);
}

namespace {

struct BulkResult {
    std::uint64_t received = 0;
    std::uint64_t digest = 0;
    std::int64_t closed_at_ns = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t forwarded = 0;

    friend bool operator==(const BulkResult&, const BulkResult&) = default;
};

/// 512 KiB from the client to the server through the first calibrated
/// gateway, written in odd-sized pieces as the send queue drains.
BulkResult bulk_transfer() {
    sim::EventLoop loop;
    harness::Testbed tb(loop);
    const int i = tb.add_device(devices::all_profiles()[0]);
    tb.start_and_wait();
    auto& slot = tb.slot(i);

    constexpr std::size_t kBytes = 512 * 1024;
    BulkResult r;
    r.digest = 0xcbf29ce484222325ULL;
    auto& lst = tb.server().tcp_listen(5001);
    lst.set_accept_handler([&](stack::TcpSocket& conn) {
        conn.on_data = [&](std::span<const std::uint8_t> d) {
            for (const auto b : d) r.digest = (r.digest ^ b) * 0x100000001b3ULL;
            r.received += d.size();
        };
        conn.on_remote_close = [&] {
            r.closed_at_ns = loop.now().count();
            conn.close();
        };
    });
    auto& conn =
        tb.client().tcp_connect(slot.client_addr, 0, {slot.server_addr, 5001});
    std::size_t written = 0;
    auto top_up = [&] {
        while (written < kBytes && conn.bytes_unsent() < 96 * 1024) {
            const std::size_t n = std::min<std::size_t>(3001, kBytes - written);
            net::Bytes chunk(n);
            for (std::size_t k = 0; k < n; ++k)
                chunk[k] = static_cast<std::uint8_t>((written + k) * 131 >> 3);
            written += n;
            conn.send(chunk);
            if (written == kBytes) conn.close();
        }
    };
    conn.on_established = top_up;
    conn.on_progress = [&] {
        // Read while the socket lives: it is reaped after TIME-WAIT.
        r.retransmits = conn.retransmissions();
        top_up();
    };
    loop.run_for(std::chrono::seconds(10));
    auto& fwd = slot.gw->fwd();
    r.forwarded = fwd.forwarded(gateway::Direction::Up) +
                  fwd.forwarded(gateway::Direction::Down);
    return r;
}

} // namespace

// One transfer on a cold stash and one on the warm stash it left, on each
// of two threads at once: all four equal the same pair run on one thread.
TEST(RingStash, PerThread) {
    const BulkResult reference = bulk_transfer();
    ASSERT_EQ(reference.received, 512u * 1024u);
    ASSERT_NE(reference.closed_at_ns, 0);
    EXPECT_EQ(bulk_transfer(), reference);

    BulkResult got[2][2];
    std::size_t parked[2] = {};
    std::thread a([&] {
        got[0][0] = bulk_transfer();
        got[0][1] = bulk_transfer();
        parked[0] = RingStash::local().parked();
    });
    std::thread b([&] {
        got[1][0] = bulk_transfer();
        got[1][1] = bulk_transfer();
        parked[1] = RingStash::local().parked();
    });
    a.join();
    b.join();
    for (const auto& thread : got)
        for (const auto& r : thread) EXPECT_EQ(r, reference);
    // Each thread's stash holds what its own sockets left.
    EXPECT_GE(parked[0], 1u);
    EXPECT_GE(parked[1], 1u);
}
