#include "stack/tcp_socket.hpp"

#include <algorithm>
#include <utility>

#include "stack/host.hpp"
#include "util/assert.hpp"

namespace gatekit::stack {

namespace {

constexpr sim::Duration kMinRto = std::chrono::milliseconds(200);
constexpr sim::Duration kMaxRto = std::chrono::seconds(60);
constexpr sim::Duration kInitialRto = std::chrono::seconds(1);
constexpr sim::Duration kTimeWaitDuration = std::chrono::seconds(2);
constexpr int kMaxSynRetries = 5;
constexpr int kMaxRtoBackoffs = 8;

/// Reconstruct an absolute sequence number from a 32-bit wire value,
/// choosing the representation closest to `reference`.
std::uint64_t unwrap(std::uint32_t wire, std::uint64_t reference) {
    const auto ref32 = static_cast<std::uint32_t>(reference);
    const auto delta = static_cast<std::int32_t>(wire - ref32);
    return reference + delta;
}

} // namespace

TcpSocket::TcpSocket(Host& host, net::Endpoint local, net::Endpoint remote,
                     bool active, std::uint32_t iss)
    : host_(host), local_(local), remote_(remote),
      state_(active ? State::SynSent : State::SynRcvd), iss_(iss),
      snd_una_(iss), snd_nxt_(iss), snd_max_(iss),
      send_buf_base_(iss + 1),
      cwnd_(3u * kDefaultMss), rto_(kInitialRto) {}

void TcpSocket::start_connect() {
    GK_ASSERT(state_ == State::SynSent);
    net::TcpFlags syn;
    syn.syn = true;
    send_segment(syn, iss_, 0, /*with_mss=*/true);
    snd_nxt_ = iss_ + 1;
    snd_max_ = std::max(snd_max_, snd_nxt_);
    timed_seq_ = iss_ + 1;
    timed_sent_ = host_.loop().now();
    arm_rto();
}

void TcpSocket::start_passive(std::uint32_t peer_isn) {
    GK_ASSERT(state_ == State::SynRcvd);
    irs_ = peer_isn;
    rcv_nxt_ = irs_ + 1;
    net::TcpFlags synack;
    synack.syn = true;
    synack.ack = true;
    send_segment(synack, iss_, 0, /*with_mss=*/true);
    snd_nxt_ = iss_ + 1;
    snd_max_ = std::max(snd_max_, snd_nxt_);
    arm_rto();
}

TcpSocket::~TcpSocket() {
    net::PacketPool& pool = host_.nic().pool();
    for (OooSegment& s : ooo_) pool.release(std::move(s.data));
    ooo_.clear();
    auto& spare = spare_ooo();
    if (ooo_.capacity() > spare.capacity()) spare = std::move(ooo_);
    RingStash::local().keep(std::move(send_ring_));
}

std::vector<TcpSocket::OooSegment>& TcpSocket::spare_ooo() {
    thread_local std::vector<OooSegment> spare;
    return spare;
}

void TcpSocket::reserve_send(std::size_t need) {
    if (need <= send_ring_.capacity) return;
    RingStash& stash = RingStash::local();
    SendRing next = stash.take(need);
    const std::size_t first =
        std::min(send_queued_, send_ring_.capacity - send_head_);
    std::uint8_t* out = std::copy_n(send_ring_.bytes.get() + send_head_,
                                    first, next.bytes.get());
    std::copy_n(send_ring_.bytes.get(), send_queued_ - first, out);
    stash.keep(std::exchange(send_ring_, std::move(next)));
    send_head_ = 0;
}

void TcpSocket::send(std::span<const std::uint8_t> data) {
    if (!data.empty()) {
        reserve_send(send_queued_ + data.size());
        const std::size_t at =
            (send_head_ + send_queued_) & (send_ring_.capacity - 1);
        const std::size_t first =
            std::min(data.size(), send_ring_.capacity - at);
        std::copy_n(data.data(), first, send_ring_.bytes.get() + at);
        std::copy_n(data.data() + first, data.size() - first,
                    send_ring_.bytes.get());
        send_queued_ += data.size();
    }
    try_send();
}

void TcpSocket::close() {
    if (close_requested_ || state_ == State::Closed) return;
    close_requested_ = true;
    try_send();
}

void TcpSocket::abort() {
    if (state_ == State::Closed) return;
    net::TcpFlags rst;
    rst.rst = true;
    rst.ack = true;
    send_segment(rst, snd_nxt_, 0, false);
    fail("aborted");
}

void TcpSocket::on_segment(const net::TcpSegmentView& seg) {
    if (state_ == State::Closed) return;

    if (seg.flags.rst) {
        fail(state_ == State::SynSent ? "connection refused"
                                      : "connection reset");
        return;
    }
    if (seg.flags.syn) {
        if (auto ws = seg.wscale_option()) {
            peer_wscale_ = std::min<std::uint8_t>(*ws, 14);
            wscale_enabled_ = true;
        }
    }
    if (seg.flags.ack)
        rwnd_ = seg.flags.syn
                    ? seg.window // SYN segments carry unscaled windows
                    : (static_cast<std::uint32_t>(seg.window)
                       << (wscale_enabled_ ? peer_wscale_ : 0));
    if (auto mss = seg.mss_option()) mss_ = std::min(mss_, *mss);

    if (state_ == State::SynSent) {
        if (seg.flags.syn && seg.flags.ack &&
            unwrap(seg.ack, snd_nxt_) == iss_ + 1) {
            irs_ = seg.seq;
            rcv_nxt_ = irs_ + 1;
            snd_una_ = iss_ + 1;
            if (timed_seq_ != 0) {
                update_rtt(host_.loop().now() - timed_sent_);
                timed_seq_ = 0;
            }
            disarm_rto();
            send_ack();
            enter_established();
        }
        return; // ignore anything else during the handshake
    }

    if (state_ == State::SynRcvd) {
        if (seg.flags.ack && unwrap(seg.ack, snd_nxt_) == iss_ + 1) {
            snd_una_ = iss_ + 1;
            disarm_rto();
            enter_established();
            // fall through: the ACK may carry data
        } else if (seg.flags.syn && !seg.flags.ack) {
            // Retransmitted SYN: resend SYN|ACK.
            net::TcpFlags synack;
            synack.syn = true;
            synack.ack = true;
            send_segment(synack, iss_, 0, true);
            return;
        } else {
            return;
        }
    }

    if (state_ == State::TimeWait) {
        if (seg.flags.fin) send_ack(); // re-ACK a retransmitted FIN
        return;
    }

    if (seg.flags.syn) {
        // A SYN in a synchronized state is a stale handshake
        // retransmission: the peer never received our final ACK (it was
        // lost in flight) and is still resending its SYN|ACK. Re-ACK so
        // the peer can finish establishing (RFC 793: an unacceptable
        // segment elicits an ACK) and drop the segment.
        obs::inc(host_.m_tcp_stale_syn_);
        if (obs::trace_on(host_.tracer_)) {
            auto ev = host_.tracer_->event(host_.name(), "tcp",
                                           "stale_syn_reack");
            ev.with("local_port", static_cast<std::int64_t>(local_.port));
            ev.with("remote_port", static_cast<std::int64_t>(remote_.port));
            host_.tracer_->emit(ev);
        }
        send_ack();
        return;
    }

    const auto una_before = snd_una_;
    if (seg.flags.ack) handle_ack(seg);
    if (state_ == State::Closed) return; // handle_ack may complete LAST-ACK
    if (!seg.payload.empty()) handle_payload(seg);
    if (seg.flags.fin) handle_fin(seg);
    try_send();
    if (snd_una_ > una_before && on_progress) on_progress();
}

void TcpSocket::handle_ack(const net::TcpSegmentView& seg) {
    const std::uint64_t ack_abs = unwrap(seg.ack, snd_una_);
    if (ack_abs > snd_max_) return; // acks data never sent: ignore
    // After an RTO rollback, a cumulative ACK can cover data sent before
    // the rollback: fast-forward the send pointer past it.
    if (ack_abs > snd_nxt_) snd_nxt_ = ack_abs;

    if (ack_abs > snd_una_) {
        if (timed_seq_ != 0 && ack_abs >= timed_seq_) {
            update_rtt(host_.loop().now() - timed_sent_);
            timed_seq_ = 0;
            rto_backoffs_ = 0;
        }
        // Release acked bytes from the retransmission buffer. The FIN
        // occupies a sequence number past the data, so clamp.
        const std::uint64_t data_end = send_buf_base_ + queued();
        const std::uint64_t acked_data = std::min(ack_abs, data_end);
        if (acked_data > send_buf_base_) {
            const auto n =
                static_cast<std::size_t>(acked_data - send_buf_base_);
            send_head_ = (send_head_ + n) & (send_ring_.capacity - 1);
            send_queued_ -= n;
            send_buf_base_ = acked_data;
        }
        snd_una_ = ack_abs;
        dup_acks_ = 0;
        if (in_recovery_) {
            if (ack_abs >= recovery_point_) {
                in_recovery_ = false;
                recovery_cooldown_until_ =
                    host_.loop().now() +
                    (rtt_valid_ ? 2 * srtt_
                                : sim::Duration(std::chrono::milliseconds(10)));
            } else {
                // Partial ACK: the next hole starts here; resend at once.
                retransmit_head("newreno-partial");
            }
        }

        // Reno growth: slow start below ssthresh, then one MSS per RTT.
        if (cwnd_ < ssthresh_)
            cwnd_ += mss_;
        else
            cwnd_ += std::max<std::uint32_t>(1, mss_ * mss_ / cwnd_);

        if (fin_sent_ && ack_abs == fin_seq_ + 1) {
            disarm_rto();
            switch (state_) {
            case State::FinWait1:
                state_ = State::FinWait2;
                break;
            case State::Closing:
                enter_time_wait();
                break;
            case State::LastAck:
                state_ = State::Closed;
                disarm_rto();
                host_.loop().after(sim::Duration::zero(),
                                   [&h = host_, l = local_, r = remote_] {
                                       h.tcp_reap(l, r);
                                   });
                break;
            default:
                break;
            }
        } else if (snd_una_ == snd_nxt_) {
            disarm_rto();
        } else {
            arm_rto(); // restart for remaining in-flight data
        }
    } else if (ack_abs == snd_una_ && snd_nxt_ > snd_una_ &&
               seg.payload.empty() && !seg.flags.syn && !seg.flags.fin) {
        if (++dup_acks_ == 3 && !in_recovery_ &&
            host_.loop().now() >= recovery_cooldown_until_) {
            // Fast retransmit: resend only the missing head segment; the
            // receiver's reassembly queue turns the fill into one
            // cumulative-ACK jump. Enter NewReno recovery until every
            // byte outstanding at the loss is acknowledged.
            const auto inflight =
                static_cast<std::uint32_t>(snd_nxt_ - snd_una_);
            ssthresh_ = std::max(inflight / 2, 2u * mss_);
            cwnd_ = ssthresh_;
            in_recovery_ = true;
            recovery_point_ = snd_max_;
            retransmit_head("fast-retransmit");
        }
    }
}

void TcpSocket::handle_payload(const net::TcpSegmentView& seg) {
    const std::uint64_t seq_abs = unwrap(seg.seq, rcv_nxt_);
    const std::uint64_t len = seg.payload.size();
    if (seq_abs > rcv_nxt_) {
        // Out of order: buffer for reassembly (no SACK, but real
        // receivers keep the data; the cumulative ACK jumps once the
        // hole is filled) and emit a duplicate ACK.
        buffer_ooo(seq_abs, seg.payload);
        send_ack();
        return;
    }
    const std::uint64_t overlap = rcv_nxt_ - seq_abs;
    if (overlap >= len) {
        send_ack(); // complete duplicate
        return;
    }
    // In-order data goes up as a span of the wire buffer. Buffered
    // segments it reaches go up after it, each as a span of its own
    // buffer, from the first byte not yet delivered.
    const std::span<const std::uint8_t> fresh =
        seg.payload.subspan(static_cast<std::size_t>(overlap));
    const std::uint64_t start = rcv_nxt_;
    rcv_nxt_ += fresh.size();
    // Advance over every now-contiguous buffered segment before acking,
    // so the cumulative ACK reports the full jump.
    std::size_t joined = 0;
    for (; joined < ooo_.size() && ooo_[joined].seq <= rcv_nxt_; ++joined) {
        const OooSegment& s = ooo_[joined];
        rcv_nxt_ = std::max(rcv_nxt_, s.seq + s.data.size());
        ooo_bytes_ -= s.data.size();
    }
    bytes_rx_ += rcv_nxt_ - start;
    send_ack();
    if (on_data) on_data(fresh);
    std::uint64_t delivered = start + fresh.size();
    net::PacketPool& pool = host_.nic().pool();
    for (std::size_t i = 0; i < joined; ++i) {
        OooSegment& s = ooo_[i];
        const std::uint64_t end = s.seq + s.data.size();
        if (end > delivered && on_data)
            on_data(std::span<const std::uint8_t>(s.data).subspan(
                static_cast<std::size_t>(delivered - s.seq)));
        delivered = std::max(delivered, end);
        pool.release(std::move(s.data));
    }
    ooo_.erase(ooo_.begin(), ooo_.begin() + static_cast<long>(joined));
}

void TcpSocket::buffer_ooo(std::uint64_t seq,
                           std::span<const std::uint8_t> payload) {
    if (ooo_bytes_ + payload.size() > kOooLimit) return;
    auto at = std::lower_bound(
        ooo_.begin(), ooo_.end(), seq,
        [](const OooSegment& s, std::uint64_t v) { return s.seq < v; });
    if (at != ooo_.end() && at->seq == seq) return;
    if (ooo_.capacity() == 0) {
        ooo_ = std::exchange(spare_ooo(), {});
        at = ooo_.begin();
    }
    net::Bytes data = host_.nic().pool().acquire();
    data.assign(payload.begin(), payload.end());
    ooo_.insert(at, OooSegment{seq, std::move(data)});
    ooo_bytes_ += payload.size();
}

void TcpSocket::handle_fin(const net::TcpSegmentView& seg) {
    const std::uint64_t fin_seq =
        unwrap(seg.seq, rcv_nxt_) + seg.payload.size();
    if (fin_seq > rcv_nxt_) {
        send_ack(); // FIN beyond a hole: ask for retransmission
        return;
    }
    if (fin_seq < rcv_nxt_) {
        send_ack(); // old FIN, already counted
        return;
    }
    rcv_nxt_ += 1;
    send_ack();
    switch (state_) {
    case State::Established:
        state_ = State::CloseWait;
        if (on_remote_close) on_remote_close();
        break;
    case State::FinWait1:
        // Our FIN not yet acked: simultaneous close.
        state_ = State::Closing;
        if (on_remote_close) on_remote_close();
        break;
    case State::FinWait2:
        enter_time_wait();
        if (on_remote_close) on_remote_close();
        break;
    default:
        break;
    }
}

bool TcpSocket::fin_ready() const {
    if (!close_requested_ || fin_sent_) return false;
    if (snd_nxt_ != send_buf_base_ + queued()) return false;
    switch (state_) {
    case State::Established:
    case State::CloseWait:
    case State::FinWait1: // FIN rolled back by go-back-N
    case State::Closing:
    case State::LastAck:
        return true;
    default:
        return false;
    }
}

void TcpSocket::try_send() {
    switch (state_) {
    case State::Established:
    case State::CloseWait:
    case State::FinWait1:
    case State::Closing:
    case State::LastAck:
        break; // data (and a rolled-back FIN) may still need sending
    default:
        return;
    }

    const std::uint64_t data_end = send_buf_base_ + queued();
    const std::uint64_t wnd = std::min<std::uint64_t>(cwnd_, rwnd_);
    bool sent_any = false;
    while (snd_nxt_ < data_end) {
        const std::uint64_t inflight = snd_nxt_ - snd_una_;
        if (inflight >= wnd) break;
        const std::uint64_t usable = wnd - inflight;
        const std::uint64_t remaining = data_end - snd_nxt_;
        // Sender-side silly-window avoidance: when the window opens by
        // only a few bytes per ACK (Reno's congestion-avoidance
        // increment), wait until a full segment fits rather than
        // spraying tiny segments.
        if (usable < mss_ && remaining > usable) break;
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::uint64_t>({mss_, remaining, usable}));
        if (len == 0) break;
        net::TcpFlags flags;
        flags.ack = true;
        flags.psh = (snd_nxt_ + len == data_end);
        send_segment(flags, snd_nxt_, len, false);
        if (timed_seq_ == 0) {
            timed_seq_ = snd_nxt_ + len;
            timed_sent_ = host_.loop().now();
        }
        snd_nxt_ += len;
        snd_max_ = std::max(snd_max_, snd_nxt_);
        sent_any = true;
    }

    if (fin_ready()) {
        net::TcpFlags flags;
        flags.fin = true;
        flags.ack = true;
        send_segment(flags, snd_nxt_, 0, false);
        fin_seq_ = snd_nxt_;
        snd_nxt_ += 1;
        snd_max_ = std::max(snd_max_, snd_nxt_);
        fin_sent_ = true;
        if (state_ == State::CloseWait)
            state_ = State::LastAck;
        else if (state_ == State::Established)
            state_ = State::FinWait1;
        sent_any = true;
    }

    if (sent_any && snd_nxt_ > snd_una_ && !rto_timer_) arm_rto();
}

void TcpSocket::send_segment(net::TcpFlags flags, std::uint64_t seq_abs,
                             std::size_t payload_len, bool with_mss) {
    net::TcpSegment h;
    h.src_port = local_.port;
    h.dst_port = remote_.port;
    h.seq = static_cast<std::uint32_t>(seq_abs);
    h.ack = flags.ack ? static_cast<std::uint32_t>(rcv_nxt_) : 0u;
    h.flags = flags;
    // MSS (kind 2) and window scale (kind 3), padded with End.
    const std::uint8_t syn_opts[8] = {
        2, 4, static_cast<std::uint8_t>(mss_ >> 8),
        static_cast<std::uint8_t>(mss_), 3, 3, kWscaleShift, 0};
    const auto opts = with_mss ? std::span<const std::uint8_t>(syn_opts)
                               : std::span<const std::uint8_t>();
    // The payload as one span of the ring, or two where it wraps.
    std::span<const std::uint8_t> payload;
    std::span<const std::uint8_t> tail;
    if (payload_len > 0) {
        GK_ASSERT(seq_abs >= send_buf_base_);
        const auto off = static_cast<std::size_t>(seq_abs - send_buf_base_);
        GK_ASSERT(off + payload_len <= queued());
        const std::size_t at = (send_head_ + off) & (send_ring_.capacity - 1);
        const std::size_t first =
            std::min(payload_len, send_ring_.capacity - at);
        payload = {send_ring_.bytes.get() + at, first};
        tail = {send_ring_.bytes.get(), payload_len - first};
    }
    host_.send_datagram(
        {.protocol = net::proto::kTcp, .src = local_.addr,
         .dst = remote_.addr},
        net::tcp_header_len(opts.size()) + payload_len,
        [&](std::span<std::uint8_t> seg, net::Ipv4Addr src) {
            net::write_tcp(seg, h, opts, payload, src, remote_.addr, tail);
        });
}

void TcpSocket::send_ack() {
    net::TcpFlags flags;
    flags.ack = true;
    send_segment(flags, snd_nxt_, 0, false);
}

void TcpSocket::go_back_n() {
    // The receiver keeps no out-of-order data (no SACK), so everything
    // beyond the lost segment must be resent: roll the send pointer back.
    if (snd_nxt_ <= snd_una_) return;
    timed_seq_ = 0;
    // A FIN alone in flight stays sent, for retransmit_head to resend:
    // rolled back, it would wait for a try_send that nothing calls.
    if (fin_sent_ && fin_seq_ == snd_una_) return;
    snd_nxt_ = snd_una_;
    if (fin_sent_ && fin_seq_ >= snd_nxt_) fin_sent_ = false; // resend FIN
}

void TcpSocket::retransmit_head(const char* why) {
    ++retransmits_;
    obs::inc(host_.m_tcp_retransmits_);
    if (obs::trace_on(host_.tracer_)) {
        auto ev = host_.tracer_->event(host_.name(), "tcp", "retransmit");
        ev.with("why", why);
        ev.with("local_port", static_cast<std::int64_t>(local_.port));
        ev.with("remote_port", static_cast<std::int64_t>(remote_.port));
        host_.tracer_->emit(ev);
    }
    timed_seq_ = 0; // Karn: never time retransmitted segments
    const std::uint64_t data_end = send_buf_base_ + queued();
    if (state_ == State::SynSent) {
        net::TcpFlags syn;
        syn.syn = true;
        send_segment(syn, iss_, 0, true);
    } else if (state_ == State::SynRcvd) {
        net::TcpFlags synack;
        synack.syn = true;
        synack.ack = true;
        send_segment(synack, iss_, 0, true);
    } else if (snd_una_ < data_end) {
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::uint64_t>(mss_, data_end - snd_una_));
        net::TcpFlags flags;
        flags.ack = true;
        flags.psh = true;
        send_segment(flags, snd_una_, len, false);
    } else if (fin_sent_ && snd_una_ == fin_seq_) {
        net::TcpFlags flags;
        flags.fin = true;
        flags.ack = true;
        send_segment(flags, fin_seq_, 0, false);
    }
    arm_rto();
}

void TcpSocket::arm_rto() {
    disarm_rto();
    rto_timer_ = host_.loop().after(rto_, [this] {
        rto_timer_ = sim::EventId{};
        on_rto();
    });
}

void TcpSocket::disarm_rto() {
    if (rto_timer_) {
        host_.loop().cancel(rto_timer_);
        rto_timer_ = sim::EventId{};
    }
}

void TcpSocket::on_rto() {
    if (state_ == State::Closed) return;
    if (state_ == State::SynSent || state_ == State::SynRcvd) {
        if (++syn_retries_ > kMaxSynRetries) {
            fail("connection timed out (SYN)");
            return;
        }
    } else {
        if (++rto_backoffs_ > kMaxRtoBackoffs) {
            fail("connection timed out (retransmission limit)");
            return;
        }
        const auto inflight = static_cast<std::uint32_t>(snd_nxt_ - snd_una_);
        ssthresh_ = std::max(inflight / 2, 2u * mss_);
        cwnd_ = mss_;
        dup_acks_ = 0;
        in_recovery_ = false;
        go_back_n();
    }
    rto_ = std::min(rto_ * 2, kMaxRto);
    retransmit_head("rto");
}

void TcpSocket::update_rtt(sim::Duration sample) {
    if (!rtt_valid_) {
        srtt_ = sample;
        rttvar_ = sample / 2;
        rtt_valid_ = true;
    } else {
        const auto err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
        rttvar_ = (3 * rttvar_ + err) / 4;
        srtt_ = (7 * srtt_ + sample) / 8;
    }
    rto_ = std::clamp(srtt_ + std::max<sim::Duration>(4 * rttvar_,
                                                      std::chrono::milliseconds(1)),
                      kMinRto, kMaxRto);
}

void TcpSocket::enter_established() {
    state_ = State::Established;
    if (on_established) on_established();
    try_send();
}

void TcpSocket::enter_time_wait() {
    state_ = State::TimeWait;
    disarm_rto();
    host_.loop().after(kTimeWaitDuration,
                       [&h = host_, l = local_, r = remote_] {
                           h.tcp_reap(l, r);
                       });
}

void TcpSocket::fail(const std::string& reason) {
    if (state_ == State::Closed) return;
    state_ = State::Closed;
    disarm_rto();
    auto cb = on_error;
    host_.loop().after(sim::Duration::zero(),
                       [&h = host_, l = local_, r = remote_] {
                           h.tcp_reap(l, r);
                       });
    if (cb) cb(reason);
}

} // namespace gatekit::stack
