// Discrete-event simulation core: a priority queue of timestamped callbacks
// driven in virtual time. A 24-hour NAT-timeout binary search runs in
// milliseconds of wall time because nothing ever sleeps.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "util/small_fn.hpp"

namespace gatekit::sim {

/// Handle that allows cancelling a scheduled event: its sequence number
/// and the handler slot it occupies. The slot is reused once the event
/// fires or is cancelled; the sequence number tells a stale handle apart.
class EventId {
public:
    EventId() = default;

    explicit operator bool() const { return seq_ != 0; }
    std::uint64_t value() const { return seq_; }

private:
    friend class EventLoop;
    EventId(std::uint64_t seq, std::uint32_t slot) : seq_(seq), slot_(slot) {}
    std::uint64_t seq_ = 0;
    std::uint32_t slot_ = 0;
};

/// Observer of virtual-time advancement, for samplers that need a
/// periodic view of simulation state WITHOUT scheduling events — a
/// self-rescheduling sampler event would keep run() from ever draining
/// and perturb FIFO sequence numbers; a hook observes the clock the
/// loop was going to advance anyway. The hook must not schedule,
/// cancel, or otherwise touch the loop: it is a pure observer.
class AdvanceHook {
public:
    virtual ~AdvanceHook() = default;
    /// Called when virtual time is about to advance to `t` (>= the due
    /// time returned previously), before any handler at `t` runs — so
    /// the observed state is "everything strictly before t". Returns
    /// the next due time; the loop stays silent until then.
    virtual TimePoint on_advance(TimePoint t) = 0;
};

/// The virtual-time event loop. Events scheduled for the same instant run
/// in FIFO order of scheduling, which keeps packet ordering deterministic.
class EventLoop {
public:
    /// Inline capacity is sized for the largest hot-path closure: a
    /// forwarding-path DeliverFn scheduled whole for delayed delivery
    /// (80 bytes with its tail padding). Larger captures fall back to
    /// the heap transparently.
    using Handler = util::SmallFn<void(), 80>;

    /// Current virtual time.
    TimePoint now() const { return now_; }

    /// Schedule `fn` at absolute virtual time `t` (>= now()).
    EventId at(TimePoint t, Handler fn);

    /// Schedule `fn` after `d` has elapsed (d >= 0).
    EventId after(Duration d, Handler fn);

    /// Cancel a scheduled event: its handler is destroyed and it leaves
    /// the queue. Idempotent; cancelling a fired, running or unknown event
    /// is a no-op. The cancelled deadline still advances now() and the
    /// advance hook when the loop reaches it, exactly as if the event had
    /// stayed queued and been skipped.
    void cancel(EventId id);

    /// Run a single event if any is pending. Returns false when idle.
    bool step();

    /// Run until the queue drains.
    void run();

    /// Run all events with timestamps <= t, then advance the clock to t.
    void run_until(TimePoint t);

    /// Convenience: run_until(now() + d).
    void run_for(Duration d);

    /// Number of handlers executed so far (diagnostics).
    std::uint64_t events_processed() const { return processed_; }

    /// Number of events currently queued: live events only.
    std::size_t pending() const { return heap_.size(); }

    /// Install (or, with nullptr, remove) the advance hook. The hook
    /// fires at the next advance and thereafter per its own returned
    /// due times. Disabled cost on the firing path is one untaken
    /// branch; the caller must clear the hook before it is destroyed.
    void set_advance_hook(AdvanceHook* hook) {
        hook_ = hook;
        hook_due_ = TimePoint{};
    }

private:
    /// Handlers live in stable slots (chunked slab: references survive
    /// growth); the heap orders 24-byte POD refs. Percolation then
    /// shuffles trivially-copyable refs instead of moving ~100-byte
    /// events through the handlers' indirect move operations — the
    /// dominant scheduling cost on the per-packet forwarding path.
    struct Slot {
        Handler fn;
    };
    /// 64 slots per chunk: one 8 KB allocation per 64 events instead of
    /// a deque block every handful (a deque block holds only 512 bytes'
    /// worth of these wide slots).
    static constexpr std::uint32_t kSlotChunkBits = 6;
    static constexpr std::uint32_t kSlotChunkMask =
        (1u << kSlotChunkBits) - 1;
    struct Ref {
        TimePoint when;
        std::uint64_t seq; // tie-break: FIFO among equal timestamps
        std::uint32_t slot;
    };
    /// What a slot records for cancel(): the seq of the event it holds
    /// (0 while free or running) and that event's index in heap_. Kept
    /// beside the slab, not in it, so percolation writes a dense array.
    struct SlotIndex {
        std::uint64_t seq = 0;
        std::uint32_t pos = 0;
    };
    /// A cancelled event's place in the (when, seq) order.
    struct Tick {
        TimePoint when;
        std::uint64_t seq;
    };
    template <class A, class B>
    static bool precedes(const A& a, const B& b) {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    Slot& slot(std::uint32_t idx) {
        return chunks_[idx >> kSlotChunkBits][idx & kSlotChunkMask];
    }
    std::uint32_t alloc_slot(Handler&& fn);
    /// Process the next queued entry in (when, seq) order if it is due
    /// at or before `limit`: pass a cancelled tick, or fire a live event.
    bool step_until(TimePoint limit);
    void fire(const Ref& ev);
    /// Consult the hook, then move the clock to `t`.
    void advance(TimePoint t) {
        if (hook_ != nullptr && t >= hook_due_)
            hook_due_ = hook_->on_advance(t);
        now_ = t;
    }

    // Indexed binary min-heap over heap_ by (when, seq); every write
    // through place() keeps the slot's SlotIndex::pos current.
    void place(std::size_t i, const Ref& r) {
        heap_[i] = r;
        index_[r.slot].pos = static_cast<std::uint32_t>(i);
    }
    void sift_up(std::size_t i, Ref r);
    void erase_at(std::size_t i);

    std::vector<Ref> heap_;
    /// Min-heap (std::push_heap, reversed order) of cancelled events'
    /// ticks. The loop passes through each one in (when, seq) order with
    /// the live events, so a cancelled deadline still moves the clock and
    /// the hook, and counts as one step(), at its own instant.
    std::vector<Tick> dead_ticks_;
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::vector<SlotIndex> index_; ///< per slot, beside chunks_
    std::uint32_t slot_count_ = 0; ///< high-water mark of allocated slots
    std::vector<std::uint32_t> free_slots_;
    TimePoint now_{0};
    std::uint64_t next_seq_ = 1;
    std::uint64_t processed_ = 0;
    AdvanceHook* hook_ = nullptr;
    TimePoint hook_due_{}; ///< next time hook_ wants on_advance
};

} // namespace gatekit::sim
