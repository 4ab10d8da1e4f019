// TCP state machine, bulk transfer, loss recovery.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "stack/tcp_socket.hpp"
#include "testutil.hpp"

using namespace gatekit;
using testutil::LossyNet2;
using testutil::Net2;
using stack::TcpSocket;

namespace {

struct EchoServer {
    explicit EchoServer(stack::Host& host, std::uint16_t port) {
        auto& lst = host.tcp_listen(port);
        lst.set_accept_handler([this](TcpSocket& conn) {
            accepted = &conn;
            conn.on_data = [&conn](std::span<const std::uint8_t> d) {
                conn.send(net::Bytes(d.begin(), d.end()));
            };
            conn.on_remote_close = [&conn] { conn.close(); };
        });
    }
    TcpSocket* accepted = nullptr;
};

} // namespace

TEST(Tcp, HandshakeEstablishesBothSides) {
    Net2 net;
    EchoServer server(net.b, 80);
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    bool established = false;
    conn.on_established = [&] { established = true; };
    net.loop.run();
    EXPECT_TRUE(established);
    ASSERT_NE(server.accepted, nullptr);
    EXPECT_TRUE(server.accepted->established());
    EXPECT_EQ(conn.remote(), (net::Endpoint{net::Ipv4Addr(10, 0, 0, 2), 80}));
}

TEST(Tcp, EchoSmallMessage) {
    Net2 net;
    EchoServer server(net.b, 80);
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    net::Bytes reply;
    conn.on_established = [&] { conn.send({'p', 'i', 'n', 'g'}); };
    conn.on_data = [&](std::span<const std::uint8_t> d) {
        reply.insert(reply.end(), d.begin(), d.end());
    };
    net.loop.run();
    EXPECT_EQ(reply, (net::Bytes{'p', 'i', 'n', 'g'}));
}

TEST(Tcp, ConnectionRefusedByRst) {
    Net2 net;
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 81});
    std::string error;
    conn.on_error = [&](const std::string& e) { error = e; };
    net.loop.run();
    EXPECT_EQ(error, "connection refused");
}

TEST(Tcp, SynTimesOutWhenPeerSilent) {
    LossyNet2 net;
    net.filter.set_predicate([](bool, std::uint64_t, const sim::Frame&) {
        return true; // black hole
    });
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    std::string error;
    conn.on_error = [&](const std::string& e) { error = e; };
    net.loop.run();
    EXPECT_EQ(error, "connection timed out (SYN)");
    EXPECT_LT(sim::to_sec(net.loop.now()), 120.0);
}

TEST(Tcp, BulkTransferDeliversAllBytesInOrder) {
    Net2 net;
    constexpr std::size_t kSize = 2 * 1000 * 1000;
    auto& lst = net.b.tcp_listen(80);
    std::uint64_t received = 0;
    bool in_order = true;
    std::uint8_t expect = 0;
    TcpSocket* server_conn = nullptr;
    lst.set_accept_handler([&](TcpSocket& conn) {
        server_conn = &conn;
        conn.on_data = [&](std::span<const std::uint8_t> d) {
            for (auto b : d) {
                if (b != expect) in_order = false;
                expect = static_cast<std::uint8_t>(expect + 1);
            }
            received += d.size();
        };
        conn.on_remote_close = [&conn] { conn.close(); };
    });

    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    conn.on_established = [&] {
        net::Bytes data(kSize);
        for (std::size_t i = 0; i < kSize; ++i)
            data[i] = static_cast<std::uint8_t>(i);
        conn.send(std::move(data));
        conn.close();
    };
    net.loop.run();
    EXPECT_EQ(received, kSize);
    EXPECT_TRUE(in_order);
    // 2 MB at 100 Mb/s is ~0.16 s minimum; the transfer must be in that
    // ballpark, i.e. the window actually opened up.
    EXPECT_LT(sim::to_sec(net.loop.now()), 5.0);
}

TEST(Tcp, ThroughputApproachesLineRate) {
    Net2 net;
    constexpr std::size_t kSize = 4 * 1000 * 1000;
    auto& lst = net.b.tcp_listen(80);
    sim::TimePoint first_byte{}, last_byte{};
    std::uint64_t received = 0;
    lst.set_accept_handler([&](TcpSocket& conn) {
        conn.on_data = [&](std::span<const std::uint8_t> d) {
            if (received == 0) first_byte = net.loop.now();
            received += d.size();
            last_byte = net.loop.now();
        };
    });
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    conn.on_established = [&] { conn.send(net::Bytes(kSize, 0xab)); };
    net.loop.run_for(std::chrono::seconds(20));
    ASSERT_EQ(received, kSize);
    const double secs = sim::to_sec(last_byte - first_byte);
    const double mbps = static_cast<double>(kSize) * 8 / secs / 1e6;
    // Line rate is 100 Mb/s; with headers TCP goodput tops out ~94.
    EXPECT_GT(mbps, 80.0);
    EXPECT_LT(mbps, 100.0);
}

TEST(Tcp, RecoversFromSingleLoss) {
    LossyNet2 net;
    // Drop one data frame mid-transfer (frame 30 a->b).
    net.filter.set_predicate([](bool a_to_b, std::uint64_t idx,
                                const sim::Frame&) {
        return a_to_b && idx == 30;
    });
    constexpr std::size_t kSize = 500 * 1000;
    auto& lst = net.b.tcp_listen(80);
    std::uint64_t received = 0;
    std::uint8_t expect = 0;
    bool in_order = true;
    lst.set_accept_handler([&](TcpSocket& conn) {
        conn.on_data = [&](std::span<const std::uint8_t> d) {
            for (auto b : d) {
                if (b != expect) in_order = false;
                expect = static_cast<std::uint8_t>(expect + 1);
            }
            received += d.size();
        };
    });
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    conn.on_established = [&] {
        net::Bytes data(kSize);
        for (std::size_t i = 0; i < kSize; ++i)
            data[i] = static_cast<std::uint8_t>(i);
        conn.send(std::move(data));
    };
    net.loop.run_for(std::chrono::seconds(30));
    EXPECT_EQ(received, kSize);
    EXPECT_TRUE(in_order);
    EXPECT_EQ(net.filter.dropped(), 1u);
    EXPECT_GE(conn.retransmissions(), 1u);
}

TEST(Tcp, RecoversFromPeriodicLoss) {
    LossyNet2 net;
    net.filter.set_predicate([](bool a_to_b, std::uint64_t idx,
                                const sim::Frame&) {
        return a_to_b && idx % 97 == 50; // ~1% loss in the data direction
    });
    constexpr std::size_t kSize = 1000 * 1000;
    auto& lst = net.b.tcp_listen(80);
    std::uint64_t received = 0;
    lst.set_accept_handler([&](TcpSocket& conn) {
        conn.on_data = [&](std::span<const std::uint8_t> d) {
            received += d.size();
        };
    });
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    conn.on_established = [&] { conn.send(net::Bytes(kSize, 1)); };
    net.loop.run_for(std::chrono::seconds(60));
    EXPECT_EQ(received, kSize);
    EXPECT_GT(net.filter.dropped(), 3u);
}

TEST(Tcp, GracefulCloseBothDirections) {
    Net2 net;
    auto& lst = net.b.tcp_listen(80);
    bool server_saw_close = false;
    lst.set_accept_handler([&](TcpSocket& conn) {
        conn.on_remote_close = [&, pconn = &conn] {
            server_saw_close = true;
            pconn->close();
        };
    });
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    bool client_saw_close = false;
    conn.on_established = [&] { conn.close(); };
    conn.on_remote_close = [&] { client_saw_close = true; };
    net.loop.run();
    EXPECT_TRUE(server_saw_close);
    EXPECT_TRUE(client_saw_close);
}

TEST(Tcp, IdleConnectionStaysUp) {
    Net2 net;
    EchoServer server(net.b, 80);
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    net.loop.run();
    ASSERT_TRUE(conn.established());
    // Stay idle for an hour of virtual time (no keepalives configured).
    net.loop.run_for(std::chrono::hours(1));
    EXPECT_TRUE(conn.established());
    // Still usable afterwards.
    net::Bytes reply;
    conn.on_data = [&](std::span<const std::uint8_t> d) {
        reply.assign(d.begin(), d.end());
    };
    conn.send({'x'});
    net.loop.run();
    EXPECT_EQ(reply, (net::Bytes{'x'}));
}

TEST(Tcp, ManyParallelConnectionsToOnePort) {
    Net2 net;
    auto& lst = net.b.tcp_listen(80);
    int accepted = 0;
    lst.set_accept_handler([&](TcpSocket& conn) {
        ++accepted;
        conn.on_data = [&conn](std::span<const std::uint8_t> d) {
            conn.send(net::Bytes(d.begin(), d.end()));
        };
    });
    constexpr int kConns = 200;
    int echoed = 0;
    for (int i = 0; i < kConns; ++i) {
        auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                       {net::Ipv4Addr(10, 0, 0, 2), 80});
        conn.on_established = [&conn] { conn.send({0x42}); };
        conn.on_data = [&](std::span<const std::uint8_t>) { ++echoed; };
    }
    net.loop.run();
    EXPECT_EQ(accepted, kConns);
    EXPECT_EQ(echoed, kConns);
}

TEST(Tcp, AbortSendsRst) {
    Net2 net;
    std::string server_error;
    auto& lst = net.b.tcp_listen(80);
    lst.set_accept_handler([&](TcpSocket& conn) {
        conn.on_error = [&](const std::string& e) { server_error = e; };
    });
    auto& conn = net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                   {net::Ipv4Addr(10, 0, 0, 2), 80});
    // Abort once the server side is fully established (one extra RTT).
    conn.on_established = [&] {
        net.loop.after(std::chrono::milliseconds(10), [&] { conn.abort(); });
    };
    net.loop.run();
    EXPECT_EQ(server_error, "connection reset");
}

// --- the send ring -----------------------------------------------------

namespace {

/// Byte `i` of a ring test's stream. It depends on more than the low
/// byte of `i`, so a slice copied from the wrong place in the ring shows.
std::uint8_t ring_byte(std::uint64_t i) {
    return static_cast<std::uint8_t>((i * 2654435761u) >> 13);
}

/// An a -> b transfer over LossyNet2 built to drive TcpSocket's send
/// ring. The first write is `first` bytes, so the ring starts at
/// bit_ceil(first) bytes (`ring`). Later writes are odd-sized and top
/// the queue up to at most `limit` bytes (`ring` unless a test raises
/// it), so stream offset o sits at ring index o % ring until the ring
/// grows. The filter decodes each a -> b data or FIN segment for `drop`,
/// and a tracer records each retransmission with the stream offset it
/// resends from and the highest offset sent so far.
struct RingTransfer : obs::TraceSink {
    struct Segment {
        std::uint64_t offset = 0;
        std::size_t len = 0;
        bool fin = false;
        bool first_copy = false;
    };
    struct Retransmit {
        std::string why;
        std::uint64_t una = 0;
        std::uint64_t sent_end = 0;
    };

    RingTransfer(std::size_t total_bytes, std::size_t first_write)
        : total(total_bytes), first(first_write),
          ring(std::bit_ceil(first_write)), limit(ring) {
        tracer.add_sink(this);
        net.a.bind_observability(nullptr, &tracer);
        net.filter.set_predicate(
            [this](bool a_to_b, std::uint64_t, const sim::Frame& f) {
                return a_to_b && on_frame(f);
            });
        auto& lst = net.b.tcp_listen(80);
        lst.set_accept_handler([this](TcpSocket& c) {
            c.on_data = [this](std::span<const std::uint8_t> d) {
                received.insert(received.end(), d.begin(), d.end());
            };
            c.on_remote_close = [this, &c] {
                remote_closed = true;
                c.close();
            };
        });
    }

    /// Whether a multiple of the starting ring size lies inside
    /// [begin, end): the range wraps the ring.
    bool wraps(std::uint64_t begin, std::uint64_t end) const {
        return end > begin && begin / ring != (end - 1) / ring;
    }

    void run() {
        conn = &net.a.tcp_connect(net::Ipv4Addr(10, 0, 0, 1), 0,
                                  {net::Ipv4Addr(10, 0, 0, 2), 80});
        conn->on_established = [this] { write(first); };
        conn->on_progress = [this] {
            if (on_progress) on_progress();
            top_up();
        };
        net.loop.run_for(std::chrono::seconds(120));
    }

    net::Bytes expected() const {
        net::Bytes out(total);
        for (std::size_t i = 0; i < total; ++i) out[i] = ring_byte(i);
        return out;
    }

    std::size_t count(const char* why, bool across_wrap_only) const {
        std::size_t n = 0;
        for (const auto& r : retransmits)
            if (r.why == why && (!across_wrap_only || wraps(r.una, r.sent_end)))
                ++n;
        return n;
    }

    LossyNet2 net;
    obs::Tracer tracer{net.loop};
    const std::size_t total;
    const std::size_t first;
    const std::size_t ring;
    std::size_t limit;
    std::function<bool(const Segment&)> drop;
    std::function<void()> on_progress;
    TcpSocket* conn = nullptr;
    std::vector<Segment> segments; ///< every a -> b data or FIN segment
    std::vector<Retransmit> retransmits;
    net::Bytes received;
    bool remote_closed = false;

    /// Write the next `n` bytes of the stream; close after the last.
    void write(std::size_t n) {
        net::Bytes chunk(n);
        for (std::size_t i = 0; i < n; ++i) chunk[i] = ring_byte(written + i);
        written += n;
        conn->send(chunk);
        if (written == total) conn->close();
    }

private:
    void top_up() {
        static constexpr std::size_t kSizes[] = {1, 777, 1461, 3001, 13, 4099,
                                                 2049};
        while (written < total && written != 0) {
            const std::size_t n =
                std::min(kSizes[chunks_ % std::size(kSizes)], total - written);
            if (conn->bytes_unsent() + n > limit) break;
            ++chunks_;
            write(n);
        }
    }

    bool on_frame(const sim::Frame& f) {
        const std::uint8_t* ip = f.data() + 14;
        if (f.size() < 54 || ip[9] != net::proto::kTcp) return false;
        const std::size_t ihl = (ip[0] & 0x0fu) * 4u;
        const std::size_t ip_len = (std::size_t{ip[2]} << 8) | ip[3];
        const std::uint8_t* tcp = ip + ihl;
        const std::uint32_t seq = (std::uint32_t{tcp[4]} << 24) |
                                  (std::uint32_t{tcp[5]} << 16) |
                                  (std::uint32_t{tcp[6]} << 8) | tcp[7];
        const std::size_t doff = (tcp[12] >> 4) * 4u;
        const bool syn = (tcp[13] & 0x02) != 0;
        Segment s;
        s.fin = (tcp[13] & 0x01) != 0;
        s.len = ip_len - ihl - doff;
        if (syn) iss_ = seq;
        if (syn || (s.len == 0 && !s.fin)) return false;
        s.offset = static_cast<std::uint32_t>(seq - *iss_ - 1);
        const std::uint64_t end = s.offset + s.len + (s.fin ? 1 : 0);
        s.first_copy = end > sent_end_;
        sent_end_ = std::max(sent_end_, end);
        segments.push_back(s);
        return drop && drop(s);
    }

    void on_event(const obs::TraceEvent& ev) override {
        if (ev.name != "retransmit") return;
        Retransmit r;
        for (const auto& f : ev.fields)
            if (f.key == "why") r.why = f.text;
        r.una = conn->bytes_acked();
        r.sent_end = sent_end_;
        retransmits.push_back(r);
    }

    std::size_t written = 0;
    std::size_t chunks_ = 0;
    std::optional<std::uint32_t> iss_;
    std::uint64_t sent_end_ = 0;
};

} // namespace

// Two losses around each third wrap point: the segment that ends just
// before it and the one just after the segment that straddles it. Fast
// retransmit fills the first hole; the partial ACK that follows jumps
// across the wrap and resends the second hole from the ring's start.
TEST(TcpRing, StraddlingSegmentsAndPartialAcksAcrossTheWrap) {
    RingTransfer t(48 * 16384 + 333, 12289);
    ASSERT_EQ(t.ring, 16384u);
    t.drop = [&t](const RingTransfer::Segment& s) {
        if (!s.first_copy || s.len == 0) return false;
        const std::uint64_t ring = t.ring;
        const std::uint64_t next_wrap = (s.offset / ring + 1) * ring;
        const std::uint64_t last_wrap = (s.offset / ring) * ring;
        if ((next_wrap / ring) % 3 == 0 && s.offset + s.len <= next_wrap &&
            next_wrap - (s.offset + s.len) < TcpSocket::kDefaultMss)
            return true; // ends just before a wrap point
        return (last_wrap / ring) % 3 == 0 && last_wrap != 0 &&
               s.offset > last_wrap &&
               s.offset - last_wrap <= TcpSocket::kDefaultMss; // just after
    };
    t.run();

    std::size_t straddling = 0;
    for (const auto& s : t.segments)
        if (s.first_copy && t.wraps(s.offset, s.offset + s.len)) ++straddling;
    EXPECT_GE(straddling, 40u);
    // Each partial ACK's resend starts in a later lap of the ring than
    // the fast retransmit before it: the ACK carried the head across.
    std::size_t partial_across = 0;
    std::optional<std::uint64_t> recovery_una;
    for (const auto& r : t.retransmits) {
        if (r.why == "fast-retransmit") recovery_una = r.una;
        if (r.why == "newreno-partial" && recovery_una &&
            *recovery_una / t.ring < r.una / t.ring)
            ++partial_across;
    }
    EXPECT_GE(partial_across, 5u);
    EXPECT_TRUE(t.remote_closed);
    EXPECT_EQ(t.received, t.expected());
}

// A blackout that swallows a whole flight in which a segment straddles
// the wrap: the RTO rolls the send pointer back across the wrap
// (go-back-N) and the straddling segment is read from the ring again.
TEST(TcpRing, GoBackNRollsBackAcrossTheWrap) {
    RingTransfer t(24 * 8192 + 77, 8191);
    ASSERT_EQ(t.ring, 8192u);
    std::optional<sim::TimePoint> blackout_end;
    t.drop = [&](const RingTransfer::Segment& s) {
        const auto now = t.net.loop.now();
        if (!blackout_end && s.first_copy && s.offset > 4 * t.ring &&
            t.wraps(s.offset, s.offset + s.len))
            blackout_end = now + std::chrono::milliseconds(30);
        return blackout_end && now < *blackout_end;
    };
    t.run();

    ASSERT_TRUE(blackout_end.has_value());
    EXPECT_GE(t.count("rto", /*across_wrap_only=*/true), 1u);
    std::size_t straddler_resends = 0;
    for (const auto& s : t.segments)
        if (!s.first_copy && t.wraps(s.offset, s.offset + s.len))
            ++straddler_resends;
    EXPECT_GE(straddler_resends, 1u);
    EXPECT_TRUE(t.remote_closed);
    EXPECT_EQ(t.received, t.expected());
}

// The ring grows (by doubling, to what is queued) while its queue wraps
// and is in flight. The segments that carried the queue's wrapped piece
// are lost on their way, so they are resent from where the growth moved
// them. The transfer goes on under loss, and the last data segment's
// first copy is lost too, so the FIN that follows it lands beyond a
// hole; the RTO's go-back-N rolls both back, and the FIN is sent again
// once the data is acknowledged, all after the ring has wrapped.
TEST(TcpRing, GrowsWhileWrappedInFlightAndFinsAfterTheWrap) {
    RingTransfer t(300001, 6143);
    ASSERT_EQ(t.ring, 8192u);
    // Stream offsets of the queue's piece past the ring's end, at growth.
    std::optional<std::pair<std::uint64_t, std::uint64_t>> wrapped_piece;
    t.on_progress = [&] {
        const TcpSocket& c = *t.conn;
        if (wrapped_piece || c.bytes_acked() < 2 * t.ring) return;
        const std::uint64_t head = c.bytes_acked() % t.ring;
        const bool in_flight = c.bytes_pending_send() < c.bytes_unsent();
        if (head + c.bytes_unsent() > t.ring && in_flight) {
            wrapped_piece = {c.bytes_acked() + (t.ring - head),
                             c.bytes_acked() + c.bytes_unsent()};
            // One byte more than the ring holds: it doubles, and both
            // pieces of the wrapped queue move into the new ring.
            t.write(t.ring + 1 - c.bytes_unsent());
            t.limit = 8 * t.ring;
        }
    };
    std::size_t data_first_copies = 0;
    std::size_t wrapped_piece_drops = 0;
    bool last_dropped = false;
    t.drop = [&](const RingTransfer::Segment& s) {
        if (!s.first_copy || s.len == 0) return false;
        if (wrapped_piece && s.offset < wrapped_piece->second &&
            s.offset + s.len > wrapped_piece->first) {
            ++wrapped_piece_drops;
            return true;
        }
        if (s.offset + s.len == t.total) return last_dropped = true;
        return ++data_first_copies % 53 == 0;
    };
    t.run();

    ASSERT_TRUE(wrapped_piece.has_value());
    EXPECT_GE(wrapped_piece_drops, 1u);
    EXPECT_TRUE(last_dropped);
    EXPECT_GE(t.count("rto", /*across_wrap_only=*/false), 1u);
    std::size_t fins = 0;
    for (const auto& s : t.segments)
        if (s.fin) {
            ++fins;
            EXPECT_EQ(s.offset, t.total);
        }
    EXPECT_GE(fins, 2u);
    EXPECT_GT(t.total, 8 * t.ring); // past the grown ring's first wrap
    EXPECT_TRUE(t.remote_closed);
    EXPECT_EQ(t.received, t.expected());
}

// A FIN that is the only segment in flight is lost: the RTO resends it
// (go-back-N keeps it sent rather than rolling it back), and the peer
// sees the close after that one timeout.
TEST(TcpRing, LostLoneFinIsResentByTheRto) {
    RingTransfer t(5000, 5000);
    t.drop = [](const RingTransfer::Segment& s) {
        return s.fin && s.first_copy;
    };
    t.run();

    std::size_t fins = 0;
    for (const auto& s : t.segments)
        if (s.fin) {
            ++fins;
            EXPECT_EQ(s.offset, t.total);
        }
    EXPECT_EQ(fins, 2u);
    EXPECT_EQ(t.count("rto", /*across_wrap_only=*/false), 1u);
    EXPECT_EQ(t.retransmits.size(), 1u);
    EXPECT_TRUE(t.remote_closed);
    EXPECT_EQ(t.received, t.expected());
}
