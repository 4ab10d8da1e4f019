#include "sim/link.hpp"

#include "util/assert.hpp"

namespace gatekit::sim {

Link::Link(EventLoop& loop, std::uint64_t bits_per_sec, Duration propagation)
    : loop_(loop), rate_(bits_per_sec), prop_(propagation) {
    GK_EXPECTS(bits_per_sec > 0);
    GK_EXPECTS(propagation >= Duration::zero());
    constexpr std::uint64_t kBitsPerSecNs = 8u * 1'000'000'000ULL;
    if (kBitsPerSecNs % rate_ == 0) ns_per_byte_ = kBitsPerSecNs / rate_;
}

void Link::bind_observability(obs::MetricsRegistry* reg, obs::Tracer* tracer,
                              const std::string& device,
                              FrameIndexFn frame_index) {
    tracer_ = tracer;
    trace_device_ = device;
    frame_index_ = std::move(frame_index);
    a_to_b_.label = "a2b";
    b_to_a_.label = "b2a";
    if (reg == nullptr) return;
    for (Direction* d : {&a_to_b_, &b_to_a_}) {
        const auto labels =
            reg->label_set({{"device", device}, {"direction", d->label}});
        d->m_lost = reg->counter("link.impair.lost", labels);
        d->m_dup = reg->counter("link.impair.duplicated", labels);
        d->m_reordered = reg->counter("link.impair.reordered", labels);
        d->m_corrupted = reg->counter("link.impair.corrupted", labels);
        d->m_tx_drops = reg->counter("link.tx.drops", labels);
    }
}

void Link::trace_impair(const Direction& d, const char* what,
                        std::size_t bytes) const {
    if (!obs::trace_on(tracer_)) return;
    auto ev = tracer_->event(trace_device_, "link", what);
    ev.with("direction", d.label);
    ev.with("bytes", static_cast<std::int64_t>(bytes));
    // The capture tap (when attached) has already recorded this frame:
    // send() taps at wire time before the impairment draw runs.
    if (frame_index_) ev.frame = frame_index_();
    tracer_->emit(ev);
}

void Link::attach(Side side, FrameSink& sink) {
    // The receiver for frames arriving at `side` terminates the direction
    // flowing *toward* that side.
    dir(side == Side::A ? Side::B : Side::A).receiver = &sink;
}

std::size_t Link::tx_backlog_bytes(Side side) const {
    const auto& d = dir(side);
    if (d.busy_until <= loop_.now()) return 0;
    // Exact integer form of busy_ns * rate / 8e9; the product can exceed
    // 64 bits for long backlogs at gigabit rates.
    const auto busy_ns =
        static_cast<std::uint64_t>((d.busy_until - loop_.now()).count());
    const auto bytes = static_cast<unsigned __int128>(busy_ns) * rate_ /
                       (8u * 1'000'000'000ULL);
    return static_cast<std::size_t>(bytes);
}

Duration Link::tx_time(std::size_t bytes) const {
    // Whole-frame serialization delay at the configured bit rate. When
    // the rate divides 8e9 the division is exact, so the precomputed
    // per-byte form gives the identical truncated result without a
    // 64-bit divide on the per-frame path.
    if (ns_per_byte_ != 0)
        return Duration(
            static_cast<std::int64_t>(bytes * ns_per_byte_));
    const auto bits = static_cast<std::uint64_t>(bytes) * 8u;
    return Duration(static_cast<std::int64_t>(bits * 1'000'000'000ULL / rate_));
}

void Link::send(Side from, Frame frame) {
    Direction& d = dir(from);
    GK_EXPECTS(d.receiver != nullptr);
    // Finite transmit backlog: drop when more than tx_queue_bytes_ of
    // serialization time is already committed ahead of this frame.
    if (d.busy_until > loop_.now()) {
        // busy_ns * rate / 8e9 > tx_queue_bytes, cross-multiplied so the
        // comparison is exact integer arithmetic.
        const auto busy_ns =
            static_cast<std::uint64_t>((d.busy_until - loop_.now()).count());
        if (static_cast<unsigned __int128>(busy_ns) * rate_ >
            static_cast<unsigned __int128>(tx_queue_bytes_) *
                (8u * 1'000'000'000ULL)) {
            ++d.tx_drops;
            obs::inc(d.m_tx_drops);
            trace_impair(d, "tx.drop", frame.size());
            return;
        }
    }
    const TimePoint start = std::max(loop_.now(), d.busy_until);
    const TimePoint done = start + tx_time(frame.size());
    d.busy_until = done;
    ++d.frames_sent;
    if (tap_) tap_(from, start, frame);
    if (d.impair && d.impair->cfg.any()) {
        deliver_impaired(d, done, std::move(frame));
        return;
    }
    FrameSink* rx = d.receiver;
    loop_.at(done + prop_, [rx, f = std::move(frame)]() mutable {
        rx->frame_in(std::move(f));
    });
}

void Link::set_impairments(Side from, const LinkImpairments& imp,
                           std::uint64_t seed) {
    Direction& d = dir(from);
    if (!imp.any()) {
        d.impair.reset();
        return;
    }
    d.impair = std::make_unique<Impairer>(seed);
    d.impair->cfg = imp;
}

const LinkImpairments& Link::impairments(Side from) const {
    static const LinkImpairments kNone;
    const Direction& d = dir(from);
    return d.impair ? d.impair->cfg : kNone;
}

const ImpairmentStats& Link::impairment_stats(Side from) const {
    static const ImpairmentStats kZero;
    const Direction& d = dir(from);
    return d.impair ? d.impair->stats : kZero;
}

// Impairments apply after serialization: the frame occupied the wire, then
// the medium lost/garbled/delayed it. Draw order is fixed (loss, corrupt,
// jitter, reorder, duplicate) so a given seed replays the same fate
// sequence regardless of which knobs are non-zero.
void Link::deliver_impaired(Direction& d, TimePoint done, Frame frame) {
    Impairer& im = *d.impair;
    const LinkImpairments& cfg = im.cfg;
    if (cfg.loss > 0.0 && im.rng.uniform01() < cfg.loss) {
        ++im.stats.dropped;
        obs::inc(d.m_lost);
        trace_impair(d, "impair.lost", frame.size());
        return;
    }
    if (cfg.corrupt > 0.0 && im.rng.uniform01() < cfg.corrupt &&
        !frame.empty()) {
        ++im.stats.corrupted;
        obs::inc(d.m_corrupted);
        trace_impair(d, "impair.corrupted", frame.size());
        if ((im.rng.next_u64() & 1u) != 0) {
            frame.resize(im.rng.uniform(
                0, static_cast<std::uint32_t>(frame.size()) - 1));
        } else {
            const auto idx = im.rng.uniform(
                0, static_cast<std::uint32_t>(frame.size()) - 1);
            frame[idx] ^= static_cast<std::uint8_t>(
                im.rng.uniform(1, 255));
        }
    }
    Duration extra{0};
    if (cfg.jitter > Duration::zero()) {
        const auto span = static_cast<std::uint64_t>(cfg.jitter.count());
        extra += Duration(static_cast<std::int64_t>(im.rng.next_u64() % span));
    }
    if (cfg.reorder > 0.0 && im.rng.uniform01() < cfg.reorder) {
        ++im.stats.reordered;
        obs::inc(d.m_reordered);
        trace_impair(d, "impair.reordered", frame.size());
        extra += cfg.reorder_hold;
    }
    const bool dup =
        cfg.duplicate > 0.0 && im.rng.uniform01() < cfg.duplicate;
    FrameSink* rx = d.receiver;
    const TimePoint when = done + prop_ + extra;
    if (dup) {
        ++im.stats.duplicated;
        obs::inc(d.m_dup);
        trace_impair(d, "impair.duplicated", frame.size());
        loop_.at(when, [rx, f = frame]() mutable { rx->frame_in(std::move(f)); });
    }
    loop_.at(when, [rx, f = std::move(frame)]() mutable {
        rx->frame_in(std::move(f));
    });
}

} // namespace gatekit::sim
