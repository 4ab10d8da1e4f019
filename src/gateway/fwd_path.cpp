#include "gateway/fwd_path.hpp"

#include "util/assert.hpp"

namespace gatekit::gateway {

FwdPath::FwdPath(sim::EventLoop& loop, const ForwardingModel& model)
    : loop_(loop), model_(model) {
    down_.limit = model.buffer_down_bytes;
    down_.line_mbps = model.down_mbps;
    up_.limit = model.buffer_up_bytes;
    up_.line_mbps = model.up_mbps;
}

void FwdPath::bind_observability(obs::MetricsRegistry& reg,
                                 const std::string& device) {
    for (Direction dir : {Direction::Down, Direction::Up}) {
        const std::string d = dir == Direction::Down ? "down" : "up";
        const auto labels =
            reg.label_set({{"device", device}, {"direction", d}});
        Queue& queue = q(dir);
        queue.m_forwarded = reg.counter("fwd.forwarded", labels);
        queue.m_dropped = reg.counter(
            "fwd.dropped", {{"device", device},
                            {"direction", d},
                            {"reason", "buffer_full"}});
        queue.m_bytes = reg.gauge("fwd.queue.bytes", labels);
        // Log-bucketed sizes: 12.5% relative resolution from runt
        // frames to jumbo without pre-chosen Ethernet bounds.
        queue.m_pkt_bytes = reg.log_histogram("fwd.packet.bytes", labels);
    }
}

sim::Duration FwdPath::service_time(std::size_t bytes, double mbps) {
    GK_EXPECTS(mbps > 0.0);
    const double seconds = static_cast<double>(bytes) * 8.0 / (mbps * 1e6);
    return sim::from_sec(seconds);
}

void FwdPath::JobRing::push(Job&& job) {
    if (count_ == capacity_) {
        const std::size_t capacity = capacity_ == 0 ? 16 : 2 * capacity_;
        auto slots = std::make_unique<Job[]>(capacity);
        for (std::size_t i = 0; i < count_; ++i)
            slots[i] = std::move(slots_[(head_ + i) & (capacity_ - 1)]);
        slots_ = std::move(slots);
        capacity_ = capacity;
        head_ = 0;
    }
    slots_[(head_ + count_) & (capacity_ - 1)] = std::move(job);
    ++count_;
}

FwdPath::Job FwdPath::JobRing::pop() {
    GK_ASSERT(count_ != 0);
    Job job = std::move(slots_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    --count_;
    return job;
}

bool FwdPath::refuse(Direction dir, std::size_t bytes) {
    Queue& queue = q(dir);
    if (queue.bytes + bytes <= queue.limit) return false;
    ++queue.drops;
    obs::inc(queue.m_dropped);
    return true;
}

bool FwdPath::submit(Direction dir, std::size_t bytes, DeliverFn deliver) {
    if (refuse(dir, bytes)) return false;
    Queue& queue = q(dir);
    // Idle fast path: with the CPU free, this queue empty and its line
    // ready, schedule() would pick this job immediately (the other
    // direction can hold only line-blocked work when the CPU is idle) —
    // start it without the ingress-queue round trip. Queue gauge and
    // timestamps match the queued path exactly.
    if (!cpu_busy_ && queue.jobs.empty() && queue.line_free_at <= loop_.now()) {
        obs::set(queue.m_bytes, static_cast<double>(queue.bytes));
        obs::observe(queue.m_pkt_bytes, static_cast<double>(bytes));
        start_job(dir, bytes, std::move(deliver));
        return true;
    }
    queue.jobs.push(Job{bytes, std::move(deliver)});
    queue.bytes += bytes;
    obs::set(queue.m_bytes, static_cast<double>(queue.bytes));
    obs::observe(queue.m_pkt_bytes, static_cast<double>(bytes));
    schedule();
    return true;
}

void FwdPath::schedule() {
    if (cpu_busy_) return;
    const auto now = loop_.now();

    // Pick an eligible direction: non-empty queue whose line is free.
    // Round-robin between the two when both are eligible.
    auto eligible = [&](Direction dir) {
        return !q(dir).jobs.empty() && q(dir).line_free_at <= now;
    };
    Direction pick = last_served_ == Direction::Down ? Direction::Up
                                                     : Direction::Down;
    if (!eligible(pick)) {
        pick = pick == Direction::Down ? Direction::Up : Direction::Down;
        if (!eligible(pick)) {
            // Nothing eligible now: if work is waiting on a busy line,
            // retry when the earliest line frees up.
            sim::TimePoint wake = sim::TimePoint::max();
            for (Direction d : {Direction::Down, Direction::Up})
                if (!q(d).jobs.empty())
                    wake = std::min(wake, q(d).line_free_at);
            if (wake != sim::TimePoint::max() && !retry_event_) {
                retry_event_ = loop_.at(wake, [this] {
                    retry_event_ = sim::EventId{};
                    schedule();
                });
            }
            return;
        }
    }
    start_service(pick);
}

void FwdPath::start_service(Direction dir) {
    Queue& queue = q(dir);
    Job job = queue.jobs.pop();
    queue.bytes -= job.bytes;
    obs::set(queue.m_bytes, static_cast<double>(queue.bytes));
    start_job(dir, job.bytes, std::move(job.deliver));
}

void FwdPath::start_job(Direction dir, std::size_t bytes, DeliverFn&& deliver) {
    Queue& queue = q(dir);
    cpu_busy_ = true;
    last_served_ = dir;
    if (bytes != cpu_st_bytes_) {
        cpu_st_bytes_ = bytes;
        cpu_st_time_ = service_time(bytes, model_.aggregate_mbps);
    }
    if (bytes != queue.st_bytes) {
        queue.st_bytes = bytes;
        queue.st_line = service_time(bytes, queue.line_mbps);
    }
    const auto cpu_time = cpu_st_time_;
    const auto line_time = queue.st_line;
    queue.line_free_at = loop_.now() + line_time;
    ++queue.forwarded;
    obs::inc(queue.m_forwarded);

    inflight_ = std::move(deliver);
    loop_.after(cpu_time, [this] {
        cpu_busy_ = false;
        // Move out first: deliver() may re-enter submit() and start the
        // next job, which reuses the inflight_ parking spot.
        DeliverFn deliver = std::move(inflight_);
        // Completion of processing: hand the packet to the egress side
        // after the fixed processing latency, snapped up to the device's
        // forwarding tick (timer-batched forwarders). Quantization is
        // monotonic, so packet order is preserved.
        sim::TimePoint when = loop_.now() + model_.processing_delay;
        if (model_.forwarding_tick > sim::Duration::zero()) {
            const auto tick = model_.forwarding_tick.count();
            const auto ticks = (when.count() + tick - 1) / tick;
            when = sim::TimePoint{ticks * tick};
        }
        if (when > loop_.now()) {
            loop_.at(when, std::move(deliver));
        } else {
            deliver();
        }
        schedule();
    });
}

} // namespace gatekit::gateway
