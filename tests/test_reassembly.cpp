// Behaviour pins for TCP's out-of-order reassembly and FwdPath's job
// queues. Each test digests what an outside observer sees (the stream a
// receiver delivers and the ACKs it sends; the time, direction and id of
// every FwdPath delivery and drop) and checks it against a digest taken
// before either structure's storage was rewritten.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "gateway/fwd_path.hpp"
#include "net/ipv4.hpp"
#include "stack/tcp_socket.hpp"
#include "testutil.hpp"

using namespace gatekit;
using stack::TcpSocket;

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
};

/// splitmix64, independent of the standard library's distributions.
class SplitMix {
public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    std::uint64_t s_;
};

/// Byte `i` of a reassembly test's stream.
std::uint8_t stream_byte(std::uint64_t i) {
    return static_cast<std::uint8_t>((i * 2654435761u) >> 11);
}

/// Host a opens a connection to host b, then forges b's inbound data
/// segments from a's address and port: any sequence range, in any
/// order. Every b -> a frame after the handshake is dropped and its
/// ACK number, window and flags go into a digest. b's socket delivers
/// into `received`.
struct ForgedPeer {
    ForgedPeer() {
        net.filter.set_predicate(
            [this](bool a_to_b, std::uint64_t, const sim::Frame& f) {
                return on_frame(a_to_b, f);
            });
        auto& lst = net.b.tcp_listen(80);
        lst.set_accept_handler([this](TcpSocket& c) {
            server = &c;
            c.on_data = [this](std::span<const std::uint8_t> d) {
                received.insert(received.end(), d.begin(), d.end());
            };
        });
        conn = &net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                  {net::Ipv4Addr(10, 0, 0, 2), 80});
        net.loop.run_for(std::chrono::milliseconds(10));
    }

    /// Send stream bytes [offset, offset + len) to b as one segment.
    void send(std::uint64_t offset, std::size_t len) {
        net::TcpSegment seg;
        seg.src_port = conn->local().port;
        seg.dst_port = 80;
        seg.seq = static_cast<std::uint32_t>(*iss_a + 1 + offset);
        seg.ack = static_cast<std::uint32_t>(*iss_b + 1);
        seg.flags.ack = true;
        seg.payload.resize(len);
        for (std::size_t i = 0; i < len; ++i)
            seg.payload[i] = stream_byte(offset + i);
        net::Ipv4Packet pkt;
        pkt.h.protocol = net::proto::kTcp;
        pkt.h.src = net::Ipv4Addr(10, 0, 0, 1);
        pkt.h.dst = net::Ipv4Addr(10, 0, 0, 2);
        pkt.payload = seg.serialize(pkt.h.src, pkt.h.dst);
        net.a.send_raw(net.ia, pkt.serialize(), pkt.h.dst);
        net.loop.run_for(std::chrono::microseconds(300));
    }

    net::Bytes expected(std::uint64_t n) const {
        net::Bytes out(n);
        for (std::uint64_t i = 0; i < n; ++i) out[i] = stream_byte(i);
        return out;
    }

    testutil::LossyNet2 net;
    TcpSocket* conn = nullptr;
    TcpSocket* server = nullptr;
    std::optional<std::uint32_t> iss_a;
    std::optional<std::uint32_t> iss_b;
    net::Bytes received;
    Fnv acks;
    std::size_t ack_count = 0;

private:
    bool on_frame(bool a_to_b, const sim::Frame& f) {
        const std::uint8_t* ip = f.data() + 14;
        if (f.size() < 54 || ip[9] != net::proto::kTcp) return false;
        const std::uint8_t* tcp = ip + (ip[0] & 0x0fu) * 4u;
        const auto be32 = [](const std::uint8_t* p) {
            return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
                   (std::uint32_t{p[2]} << 8) | p[3];
        };
        const bool syn = (tcp[13] & 0x02) != 0;
        if (syn) {
            (a_to_b ? iss_a : iss_b) = be32(tcp + 4);
            return false;
        }
        if (a_to_b || !iss_b) return false;
        acks.u64(be32(tcp + 8) - *iss_a);
        acks.u64((std::uint32_t{tcp[14]} << 8) | tcp[15]);
        acks.byte(tcp[13]);
        ++ack_count;
        return true;
    }
};

constexpr std::size_t kMss = TcpSocket::kDefaultMss;

} // namespace

// A repeated in-order segment, a repeated out-of-order one, one that
// lies wholly inside data already delivered and one that straddles the
// delivered edge: each draws an ACK, and none delivers a byte twice.
TEST(TcpReassembly, DuplicatesDeliverOnce) {
    ForgedPeer p;
    ASSERT_NE(p.server, nullptr);
    p.send(0, kMss);
    p.send(0, kMss);           // in-order duplicate
    p.send(3 * kMss, kMss);    // out of order
    p.send(3 * kMss, kMss);    // the same again
    p.send(100, 200);          // inside delivered data
    p.send(kMss - 100, kMss);  // straddles the delivered edge
    p.send(2 * kMss - 100, kMss + 100);
    p.send(4 * kMss, 10);
    EXPECT_EQ(p.received, p.expected(4 * kMss + 10));
    EXPECT_EQ(p.server->bytes_received(), 4 * kMss + 10);
    EXPECT_EQ(p.ack_count, 8u);
    EXPECT_EQ(p.acks.h, 0x22c13c7fb3cda6cbULL);
}

// Out-of-order segments that share a start keep only the first; ones
// that overlap partially, or lie inside another, are each kept under
// their own start. A fill then delivers every byte once, in order, and
// stops at the next hole.
TEST(TcpReassembly, OverlapsAndSameStart) {
    ForgedPeer p;
    ASSERT_NE(p.server, nullptr);
    p.send(0, 500);
    p.send(2000, 300);  // kept
    p.send(2000, 1000); // same start: refused, so [2300, 3000) stays a hole
    p.send(2100, 100);  // inside [2000, 2300)
    p.send(2250, 400);  // overlaps its tail
    p.send(3000, 700);
    p.send(3500, 700);  // overlaps [3000, 3700)
    p.send(5000, 100);  // beyond a second hole
    p.send(500, 1600);  // fills [500, 2100): joins up to 2650
    EXPECT_EQ(p.received, p.expected(2650));
    p.send(2650, 350);  // joins [3000, 4200)
    EXPECT_EQ(p.received, p.expected(4200));
    p.send(4200, 800);  // joins [5000, 5100)
    EXPECT_EQ(p.received, p.expected(5100));
    EXPECT_EQ(p.server->bytes_received(), 5100u);
    EXPECT_EQ(p.ack_count, 11u);
    EXPECT_EQ(p.acks.h, 0x32a8e401f8b78f0bULL);
}

// One hole in front of many buffered segments of mixed sizes: the fill
// delivers all of them, and the single cumulative ACK covers the lot.
TEST(TcpReassembly, HoleJoinsManySegments) {
    ForgedPeer p;
    ASSERT_NE(p.server, nullptr);
    SplitMix rng(29);
    std::uint64_t at = kMss;
    while (at < 400 * 1024) {
        const std::size_t len = 1 + rng.below(kMss);
        p.send(at, len);
        at += len;
    }
    p.send(0, kMss);
    EXPECT_EQ(p.received, p.expected(at));
    EXPECT_EQ(p.server->bytes_received(), at);
    EXPECT_EQ(p.acks.h, 0xc40fae5b4a3c1080ULL);
}

// The reassembly queue holds at most 4 MiB: a segment that would take it
// past the bound is refused (the sender must resend it), one that meets
// it exactly is kept.
TEST(TcpReassembly, LimitRefusesPastTheBound) {
    constexpr std::uint64_t kLimit = 4 * 1024 * 1024;
    ForgedPeer p;
    ASSERT_NE(p.server, nullptr);
    std::uint64_t at = kMss;
    while (at <= kLimit) { // buffered after this send: at
        p.send(at, kMss);
        at += kMss;
    }
    const std::uint64_t room = kLimit - (at - kMss);
    ASSERT_GT(room, 1u);
    p.send(at, room + 1); // one byte too many: refused
    p.send(at, room);     // the same start, exactly to the bound: kept
    p.send(at + room, 1); // past the bound: refused
    p.send(0, kMss);      // the fill delivers everything buffered
    EXPECT_EQ(p.received, p.expected(at + room));
    p.send(at + room, 1); // now in order
    EXPECT_EQ(p.received, p.expected(at + room + 1));
    EXPECT_EQ(p.acks.h, 0x89d98a657e99a401ULL);
}

// Seeded bursts into both directions of one FwdPath: drop-tail at the
// byte limit, the two directions sharing the CPU, queues that fill while
// others drain (so a queue grows while it wraps), and a forwarding tick.
// Every delivery and drop goes into the digest with its time, direction
// and id.
TEST(FwdPath, RingMatchesDequeDelivery) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        sim::EventLoop loop;
        gateway::ForwardingModel m;
        m.up_mbps = 30;
        m.down_mbps = 80;
        m.aggregate_mbps = 90;
        m.buffer_up_bytes = 400 * 1024; // deep: hundreds of queued jobs
        m.buffer_down_bytes = 24 * 1024; // shallow: drop-tail
        m.processing_delay = std::chrono::microseconds(50);
        m.forwarding_tick = seed == 3 ? std::chrono::microseconds(700)
                                      : sim::Duration::zero();
        gateway::FwdPath fwd(loop, m);
        SplitMix rng(seed);
        Fnv digest;
        std::uint64_t delivered = 0;
        std::uint64_t dropped = 0;
        std::uint64_t id = 0;
        for (int round = 0; round < 300; ++round) {
            // Bursts of growing size with random gaps, so each queue is
            // part-drained (its head moved on) when the next burst lands.
            const std::uint64_t burst = 1 + rng.below(4 + round / 2);
            for (std::uint64_t k = 0; k < burst; ++k) {
                const auto dir = rng.below(3) == 0 ? gateway::Direction::Down
                                                   : gateway::Direction::Up;
                const std::size_t bytes =
                    rng.below(4) == 0 ? 40 : 64 + rng.below(1437);
                const std::uint64_t my = id++;
                const bool ok = fwd.submit(dir, bytes, [&, my, dir] {
                    ++delivered;
                    digest.u64(static_cast<std::uint64_t>(loop.now().count()));
                    digest.byte(dir == gateway::Direction::Up ? 1 : 2);
                    digest.u64(my);
                });
                if (!ok) {
                    ++dropped;
                    digest.u64(static_cast<std::uint64_t>(loop.now().count()));
                    digest.byte(dir == gateway::Direction::Up ? 3 : 4);
                    digest.u64(my);
                }
            }
            loop.run_for(std::chrono::microseconds(rng.below(4000)));
        }
        loop.run();
        EXPECT_EQ(delivered + dropped, id) << "seed " << seed;
        EXPECT_GT(dropped, 0u) << "seed " << seed;
        EXPECT_EQ(fwd.drops(gateway::Direction::Up) +
                      fwd.drops(gateway::Direction::Down),
                  dropped);
        const std::uint64_t want[] = {
            0xb27fd8b18caf6549ULL, 0x9c7d754dff82f75cULL,
            0xc78f2660811fd33dULL, 0x8f2cc6f8265e5ddcULL};
        EXPECT_EQ(digest.h, want[seed]) << "seed " << seed;
    }
}
