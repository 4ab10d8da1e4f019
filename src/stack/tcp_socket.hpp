// TCP with Reno congestion control, matching the paper's measurement
// configuration (Linux 2.6.26 with SACK/timestamps/F-RTO/D-SACK/CBI
// disabled): slow start, congestion avoidance, RTO per a simplified RFC
// 6298, fast retransmit on three duplicate ACKs with out-of-order
// reassembly at the receiver (cumulative-ACK recovery, no SACK), and
// go-back-N after an RTO. Window scaling is enabled (see DESIGN.md).
#pragma once

#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "net/tcp_header.hpp"
#include "sim/event_loop.hpp"
#include "stack/ring_stash.hpp"

namespace gatekit::stack {

class Host;

class TcpSocket {
public:
    enum class State {
        SynSent,
        SynRcvd,
        Established,
        FinWait1,
        FinWait2,
        CloseWait,
        Closing,
        LastAck,
        TimeWait,
        Closed,
    };

    static constexpr std::uint16_t kDefaultMss = 1460;

    // --- callbacks -----------------------------------------------------
    std::function<void()> on_established;
    /// In-order application data. The span usually aliases the received
    /// frame and dies when the callback returns: copy what must outlive
    /// it (DESIGN.md §13). The stream may be split at any byte: a filled
    /// hole arrives as the wire segment's span, then each buffered
    /// segment's, one call apiece.
    std::function<void(std::span<const std::uint8_t>)> on_data;
    /// Peer sent FIN (half close).
    std::function<void()> on_remote_close;
    /// Connection failed: RST, SYN timeout, or retransmission limit.
    /// After this fires the socket is dead and will be reaped.
    std::function<void(const std::string&)> on_error;
    /// Fired whenever previously sent data is newly acknowledged; lets an
    /// application pace its writes against the send buffer.
    std::function<void()> on_progress;

    // --- API -------------------------------------------------------------
    /// Queue application data for transmission (copied into the send
    /// queue; `data` may alias anything, a received frame included).
    void send(std::span<const std::uint8_t> data);
    void send(std::initializer_list<std::uint8_t> data) {
        send(std::span<const std::uint8_t>(data.begin(), data.size()));
    }
    /// Graceful close: FIN once the send queue drains.
    void close();
    /// Hard close: RST immediately.
    void abort();

    State state() const { return state_; }
    net::Endpoint local() const { return local_; }
    net::Endpoint remote() const { return remote_; }
    bool established() const { return state_ == State::Established; }

    std::uint64_t bytes_received() const { return bytes_rx_; }
    std::uint64_t bytes_acked() const { return snd_una_ - iss_ - 1; }
    /// Unacked + unsent bytes held for (re)transmission.
    std::uint64_t bytes_unsent() const { return queued(); }
    /// Bytes queued but not yet put on the wire (application pacing).
    std::uint64_t bytes_pending_send() const {
        return send_buf_base_ + queued() - snd_nxt_;
    }
    std::uint32_t cwnd() const { return cwnd_; }
    std::uint64_t retransmissions() const { return retransmits_; }

    /// Leaves the send ring to the thread's RingStash and the
    /// reassembly buffers to the host NIC's pool.
    ~TcpSocket();

private:
    friend class Host;

    TcpSocket(Host& host, net::Endpoint local, net::Endpoint remote,
              bool active, std::uint32_t iss);

    void start_connect();                       // active open: send SYN
    void start_passive(std::uint32_t peer_isn); // from listener: send SYN|ACK
    void on_segment(const net::TcpSegmentView& seg);

    void handle_ack(const net::TcpSegmentView& seg);
    void handle_payload(const net::TcpSegmentView& seg);
    void handle_fin(const net::TcpSegmentView& seg);
    void try_send();
    /// Send one segment through Host::send_datagram, written straight
    /// into its frame (payload from the send queue).
    void send_segment(net::TcpFlags flags, std::uint64_t seq_abs,
                      std::size_t payload_len, bool with_mss);
    void send_ack();
    void retransmit_head(const char* why);
    /// Roll the send pointer back to snd_una_ (go-back-N): the receiver
    /// buffers nothing out of order, so a loss invalidates the whole
    /// in-flight window.
    void go_back_n();
    void arm_rto();
    void disarm_rto();
    void on_rto();
    void update_rtt(sim::Duration sample);
    void enter_established();
    void enter_time_wait();
    void fail(const std::string& reason);
    /// Sender has nothing outstanding and close() was requested.
    bool fin_ready() const;

    Host& host_;
    net::Endpoint local_;
    net::Endpoint remote_;
    State state_;

    // All sequence bookkeeping uses 64-bit absolute offsets; the low 32
    // bits go on the wire. Transfers beyond 2^32 bytes per connection
    // would need wraparound-aware compares on receive (documented limit).
    std::uint64_t iss_;
    std::uint64_t irs_ = 0;
    std::uint64_t snd_una_ = 0; ///< oldest unacked (absolute)
    std::uint64_t snd_nxt_ = 0;
    std::uint64_t snd_max_ = 0; ///< highest sequence ever sent
    std::uint64_t rcv_nxt_ = 0;
    /// Unsent + unacked app bytes: queued() bytes of send_ring_ from
    /// index send_head_, wrapping at its end, starting at absolute seq
    /// send_buf_base_. Acked bytes advance the head; nothing is ever
    /// compacted. The ring grows to bit_ceil of what is queued, from the
    /// thread's RingStash when that holds one large enough.
    SendRing send_ring_;
    std::size_t send_head_ = 0;
    std::size_t send_queued_ = 0;
    std::uint64_t send_buf_base_ = 0;
    std::size_t queued() const { return send_queued_; }
    /// Make the ring hold `need` bytes, keeping the queue.
    void reserve_send(std::size_t need);
    /// Out-of-order reassembly queue, sorted by start seq, one segment
    /// per start. Payloads sit in buffers from the host NIC's PacketPool;
    /// the index itself comes from the thread's spare (spare_ooo).
    /// Bounded; segments beyond the bound are dropped (sender resends).
    struct OooSegment {
        std::uint64_t seq;
        net::Bytes data;
    };
    std::vector<OooSegment> ooo_;
    std::size_t ooo_bytes_ = 0;
    static constexpr std::size_t kOooLimit = 4 * 1024 * 1024;
    /// Buffer an out-of-order payload unless the bound or an entry with
    /// the same start refuses it.
    void buffer_ooo(std::uint64_t seq, std::span<const std::uint8_t> payload);
    /// The largest reassembly index a dead socket on this thread left:
    /// storage only, like RingStash, taken by the next socket to buffer.
    static std::vector<OooSegment>& spare_ooo();

    std::uint16_t mss_ = kDefaultMss;
    /// Window scaling (RFC 7323): both of our stacks offer shift 7,
    /// giving an ~8 MB effective window. See DESIGN.md: the paper's hosts
    /// had scaling disabled, but several of its published delay/rate
    /// combinations exceed what a 64 KB window can keep in flight, so the
    /// reproduction needs the larger window for TCP-2/3 fidelity.
    static constexpr std::uint8_t kWscaleShift = 7;
    std::uint8_t peer_wscale_ = 0;
    bool wscale_enabled_ = false;
    std::uint32_t cwnd_;
    /// Initial slow-start threshold: 512 KiB. Large enough to fill the
    /// biggest device buffers quickly, small enough that slow start's
    /// final doubling does not flood the sender's own NIC queue.
    std::uint32_t ssthresh_ = 512 * 1024;
    std::uint32_t rwnd_ = 65535;
    int dup_acks_ = 0;
    // NewReno-style recovery: on a partial ACK (below the recovery
    // point), retransmit the next hole immediately instead of stalling
    // until RTO — without SACK, multiple losses per window would
    // otherwise cost one RTO each.
    bool in_recovery_ = false;
    std::uint64_t recovery_point_ = 0;
    /// RFC 6582 "avoid multiple fast retransmits": our own partial-ACK
    /// retransmits can draw duplicate ACKs right after recovery ends;
    /// ignore dup-ACK bursts for one RTT after exiting recovery.
    sim::TimePoint recovery_cooldown_until_{sim::Duration::zero()};

    // RTO estimation (RFC 6298 with coarse granularity removed — the
    // simulator's clock is exact).
    sim::Duration srtt_{0};
    sim::Duration rttvar_{0};
    sim::Duration rto_{std::chrono::seconds(1)};
    bool rtt_valid_ = false;
    std::uint64_t timed_seq_ = 0; ///< segment end being timed; 0 = none
    sim::TimePoint timed_sent_{};
    sim::EventId rto_timer_;
    int syn_retries_ = 0;
    int rto_backoffs_ = 0;

    bool close_requested_ = false;
    bool fin_sent_ = false;
    std::uint64_t fin_seq_ = 0; ///< absolute seq consumed by our FIN

    std::uint64_t bytes_rx_ = 0;
    std::uint64_t retransmits_ = 0;
};

/// Passive TCP endpoint: owns no connection state; hands accepted
/// connections to the callback once their handshake completes.
class TcpListener {
public:
    using AcceptHandler = std::function<void(TcpSocket&)>;
    void set_accept_handler(AcceptHandler h) { on_accept_ = std::move(h); }
    std::uint16_t port() const { return port_; }

private:
    friend class Host;
    TcpListener(Host& host, std::uint16_t port) : host_(host), port_(port) {}
    [[maybe_unused]] Host& host_;
    std::uint16_t port_;
    AcceptHandler on_accept_;
};

} // namespace gatekit::stack
