// Point-to-point duplex Ethernet link with bit-rate, propagation delay and
// store-and-forward serialization, matching the paper's 100 Mb/s testbed
// wiring. Frames are raw byte vectors; parsing happens in higher layers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gatekit::sim {

using Frame = std::vector<std::uint8_t>;

/// Per-direction wire impairments, all default-off. Probabilities are
/// per-frame and drawn from a dedicated seeded Rng so impaired runs are
/// reproducible and independent of any other randomness in the run.
/// Frames are still serialized (they occupy the wire) before the
/// impairment applies, matching a lossy medium rather than a lossy queue.
struct LinkImpairments {
    double loss = 0.0;      ///< drop the frame after serialization
    double duplicate = 0.0; ///< deliver a second copy of the frame
    double reorder = 0.0;   ///< hold the frame back so successors overtake it
    Duration reorder_hold{std::chrono::milliseconds(2)}; ///< hold-back span
    Duration jitter{0};     ///< extra delivery delay, uniform in [0, jitter)
    double corrupt = 0.0;   ///< flip one byte or truncate the frame

    bool any() const {
        return loss > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
               jitter > Duration::zero() || corrupt > 0.0;
    }
};

/// Counters for what the impairment layer actually did to one direction.
struct ImpairmentStats {
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t corrupted = 0;
};

/// Anything that can receive an Ethernet frame from a link.
class FrameSink {
public:
    virtual ~FrameSink() = default;
    virtual void frame_in(Frame frame) = 0;
};

/// Duplex link. Each direction serializes frames at `bits_per_sec` and
/// then propagates them with `propagation` delay. Each direction has a
/// finite transmit queue (the NIC/qdisc backlog): frames offered while
/// more than `tx_queue_bytes` are already waiting are dropped, exactly as
/// a host's queue discipline would. Frames never reorder unless a
/// per-direction LinkImpairments is installed (see set_impairments); the
/// default link is a perfect pipe.
class Link {
public:
    enum class Side { A, B };

    /// Default transmit backlog bound (~a short Linux txqueue).
    static constexpr std::size_t kDefaultTxQueueBytes = 640 * 1024;

    /// Observer invoked for every frame at the instant its first bit hits
    /// the wire. `from` names the transmitting side.
    using Tap =
        std::function<void(Side from, TimePoint at, std::span<const std::uint8_t>)>;

    Link(EventLoop& loop, std::uint64_t bits_per_sec, Duration propagation);

    /// Attach the receiver for frames arriving at the given side.
    void attach(Side side, FrameSink& sink);

    /// Transmit a frame from `from`; it is delivered to the sink attached
    /// at the opposite side after serialization + propagation.
    void send(Side from, Frame frame);

    /// Install (or clear, with nullptr) a frame observer.
    void set_tap(Tap tap) { tap_ = std::move(tap); }

    std::uint64_t bits_per_sec() const { return rate_; }
    Duration propagation() const { return prop_; }

    /// Frames transmitted per side (diagnostics).
    std::uint64_t frames_sent(Side side) const {
        return dir(side).frames_sent;
    }
    /// Frames dropped at the transmit queue per side.
    std::uint64_t tx_drops(Side side) const { return dir(side).tx_drops; }
    /// Bytes currently committed ahead in the transmit queue.
    std::size_t tx_backlog_bytes(Side side) const;
    void set_tx_queue_bytes(std::size_t bytes) { tx_queue_bytes_ = bytes; }

    /// Install impairments on the direction transmitting from `from`,
    /// (re)seeding that direction's Rng. Passing a default-constructed
    /// LinkImpairments restores the perfect pipe.
    void set_impairments(Side from, const LinkImpairments& imp,
                         std::uint64_t seed = 0x1badf00dULL);
    const LinkImpairments& impairments(Side from) const;
    const ImpairmentStats& impairment_stats(Side from) const;

    /// Index of the most recent frame the attached capture recorded, or
    /// -1. Supplied by whoever owns the pcap tap (the harness) so trace
    /// lines can cross-reference capture frames without the sim layer
    /// depending on pcap.
    using FrameIndexFn = std::function<std::int64_t()>;

    /// Register per-direction impairment/tx-drop counters under `device`
    /// and start emitting trace events for every impairment decision.
    /// Either pointer may be null to enable only metrics or only tracing.
    void bind_observability(obs::MetricsRegistry* reg, obs::Tracer* tracer,
                            const std::string& device,
                            FrameIndexFn frame_index = {});

private:
    // Heap-allocated so the common (unimpaired) link carries only a null
    // pointer and the send fast path stays untouched.
    struct Impairer {
        LinkImpairments cfg;
        Rng rng;
        ImpairmentStats stats;
        explicit Impairer(std::uint64_t seed) : rng(seed) {}
    };

    struct Direction {
        TimePoint busy_until{0};
        std::uint64_t frames_sent = 0;
        std::uint64_t tx_drops = 0;
        FrameSink* receiver = nullptr; // sink at the *far* end
        std::unique_ptr<Impairer> impair;
        // Instrumentation; nullptr until bind_observability.
        obs::Counter* m_lost = nullptr;
        obs::Counter* m_dup = nullptr;
        obs::Counter* m_reordered = nullptr;
        obs::Counter* m_corrupted = nullptr;
        obs::Counter* m_tx_drops = nullptr;
        const char* label = "?"; ///< direction tag for trace events
    };

    Direction& dir(Side s) { return s == Side::A ? a_to_b_ : b_to_a_; }
    const Direction& dir(Side s) const {
        return s == Side::A ? a_to_b_ : b_to_a_;
    }

    Duration tx_time(std::size_t bytes) const;
    void deliver_impaired(Direction& d, TimePoint done, Frame frame);
    void trace_impair(const Direction& d, const char* what,
                      std::size_t bytes) const;

    EventLoop& loop_;
    std::uint64_t rate_;
    /// Exact whole nanoseconds per byte when the rate divides 8e9 bits
    /// (every standard rate: 10M/100M/1G...). Zero forces the general
    /// division in tx_time(); the fast path is bit-identical when set.
    std::uint64_t ns_per_byte_ = 0;
    Duration prop_;
    std::size_t tx_queue_bytes_ = kDefaultTxQueueBytes;
    Direction a_to_b_;
    Direction b_to_a_;
    Tap tap_;

    // Tracing; null/empty until bind_observability.
    obs::Tracer* tracer_ = nullptr;
    std::string trace_device_;
    FrameIndexFn frame_index_;
};

/// Convenience endpoint handle binding a Link to one of its sides, so nodes
/// can hold a single object to send from / attach to.
class LinkEnd {
public:
    LinkEnd() = default;
    LinkEnd(Link& link, Link::Side side) : link_(&link), side_(side) {}

    void send(Frame frame) {
        GK_EXPECTS(link_ != nullptr);
        link_->send(side_, std::move(frame));
    }
    void attach(FrameSink& sink) {
        GK_EXPECTS(link_ != nullptr);
        link_->attach(side_, sink);
    }
    bool connected() const { return link_ != nullptr; }
    Link* link() { return link_; }

private:
    Link* link_ = nullptr;
    Link::Side side_ = Link::Side::A;
};

} // namespace gatekit::sim
