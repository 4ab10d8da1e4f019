// Gateway forwarding path: drop-tail ingress buffers, per-direction line
// processing and a shared forwarding CPU. TCP-2's throughput caps and
// TCP-3's bufferbloat delays both emerge from this single mechanism, as
// they did on the physical devices.
#pragma once

#include <cstdint>
#include <memory>

#include "gateway/profile.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"
#include "util/small_fn.hpp"

namespace gatekit::gateway {

enum class Direction { Down, Up }; ///< Down = WAN->LAN, Up = LAN->WAN

class FwdPath {
public:
    /// Completion callback. Inline capacity fits the hot-path captures
    /// (owner + recycled frame buffer + destination address) so queueing
    /// a packet never heap-allocates for the callable.
    using DeliverFn = util::SmallFn<void(), 48>;

    FwdPath(sim::EventLoop& loop, const ForwardingModel& model);

    /// Submit a translated packet of `bytes` length for forwarding in
    /// `dir`; `deliver` runs when the device finishes processing it.
    /// Returns false (and drops) when the ingress buffer is full.
    bool submit(Direction dir, std::size_t bytes, DeliverFn deliver);
    /// True when `bytes` more do not fit `dir`'s ingress buffer, counting
    /// the drop as submit would: a caller that owns the packet checks
    /// first and disposes of it itself.
    bool refuse(Direction dir, std::size_t bytes);

    std::uint64_t drops(Direction dir) const { return q(dir).drops; }
    std::uint64_t forwarded(Direction dir) const { return q(dir).forwarded; }
    std::size_t queued_bytes(Direction dir) const { return q(dir).bytes; }

    /// Register per-direction forwarded/dropped counters, queue-depth
    /// gauges and a packet-size log histogram under `device`.
    void bind_observability(obs::MetricsRegistry& reg,
                            const std::string& device);

private:
    struct Job {
        std::size_t bytes = 0;
        DeliverFn deliver;
    };
    /// FIFO of jobs in a power-of-two ring. It doubles when full, moving
    /// a wrapped queue across in order, and never shrinks, so a warm
    /// queue allocates nothing.
    class JobRing {
    public:
        bool empty() const { return count_ == 0; }
        void push(Job&& job);
        Job pop();

    private:
        std::unique_ptr<Job[]> slots_;
        std::size_t capacity_ = 0;
        std::size_t head_ = 0;
        std::size_t count_ = 0;
    };
    struct Queue {
        JobRing jobs;
        std::size_t bytes = 0;
        std::size_t limit = 0;
        double line_mbps = 100.0;
        sim::TimePoint line_free_at{};
        std::uint64_t drops = 0;
        std::uint64_t forwarded = 0;
        // One-entry service-time memo (line rate is fixed per queue, and
        // traffic repeats packet sizes): skips two double divisions per
        // packet while returning the identical computed Duration.
        std::size_t st_bytes = SIZE_MAX;
        sim::Duration st_line{};
        // Instrumentation; nullptr until bind_observability.
        obs::Counter* m_forwarded = nullptr;
        obs::Counter* m_dropped = nullptr;
        obs::Gauge* m_bytes = nullptr;
        obs::LogHistogram* m_pkt_bytes = nullptr;
    };

    Queue& q(Direction dir) { return dir == Direction::Down ? down_ : up_; }
    const Queue& q(Direction dir) const {
        return dir == Direction::Down ? down_ : up_;
    }

    void schedule();
    void start_service(Direction dir);
    /// Begin servicing a job on the shared CPU (caller established
    /// eligibility); factored so the idle fast path can bypass the queue.
    void start_job(Direction dir, std::size_t bytes, DeliverFn&& deliver);
    static sim::Duration service_time(std::size_t bytes, double mbps);

    sim::EventLoop& loop_;
    ForwardingModel model_;
    Queue down_;
    Queue up_;
    /// Completion callback of the job occupying the CPU. Parked here so
    /// the completion event captures only `this` instead of nesting the
    /// full DeliverFn inside the event-loop handler (which would drag an
    /// indirect move through every handler relocation). `cpu_busy_`
    /// guarantees at most one job is in flight.
    DeliverFn inflight_;
    /// CPU-side service-time memo (shared aggregate rate).
    std::size_t cpu_st_bytes_ = SIZE_MAX;
    sim::Duration cpu_st_time_{};
    bool cpu_busy_ = false;
    Direction last_served_ = Direction::Up; ///< round-robin fairness
    sim::EventId retry_event_;
};

} // namespace gatekit::gateway
