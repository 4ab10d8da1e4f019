#include "sim/event_loop.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace gatekit::sim {

namespace {

/// std::*_heap keep the largest element first; reverse for a min-heap.
struct LaterTick {
    template <class T>
    bool operator()(const T& a, const T& b) const {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
};

} // namespace

std::uint32_t EventLoop::alloc_slot(Handler&& fn) {
    if (!free_slots_.empty()) {
        const std::uint32_t idx = free_slots_.back();
        free_slots_.pop_back();
        slot(idx).fn = std::move(fn);
        return idx;
    }
    const std::uint32_t idx = slot_count_++;
    if ((idx >> kSlotChunkBits) == chunks_.size()) {
        chunks_.emplace_back(new Slot[1u << kSlotChunkBits]);
        index_.resize(chunks_.size() << kSlotChunkBits);
    }
    slot(idx).fn = std::move(fn);
    return idx;
}

void EventLoop::sift_up(std::size_t i, Ref r) {
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!precedes(r, heap_[parent])) break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, r);
}

void EventLoop::erase_at(std::size_t i) {
    const Ref last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (i == n) return; // erased the last leaf
    // Walk the hole down to a leaf along the earlier child, then sift
    // the former last leaf up from there: one comparison per level on
    // the way down, and usually one on the way up (it is a late event).
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
        if (child + 1 < n && precedes(heap_[child + 1], heap_[child]))
            ++child;
        place(i, heap_[child]);
        i = child;
    }
    sift_up(i, last);
}

EventId EventLoop::at(TimePoint t, Handler fn) {
    GK_EXPECTS(t >= now_);
    GK_EXPECTS(fn != nullptr);
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t idx = alloc_slot(std::move(fn));
    index_[idx].seq = seq;
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Ref{t, seq, idx});
    return EventId{seq, idx};
}

EventId EventLoop::after(Duration d, Handler fn) {
    GK_EXPECTS(d >= Duration::zero());
    return at(now_ + d, std::move(fn));
}

void EventLoop::cancel(EventId id) {
    if (!id || id.slot_ >= slot_count_) return;
    SlotIndex& ix = index_[id.slot_];
    if (ix.seq != id.seq_) return; // fired, running, cancelled or reused
    ix.seq = 0;
    const Ref ev = heap_[ix.pos];
    erase_at(ix.pos);
    dead_ticks_.push_back(Tick{ev.when, ev.seq});
    std::push_heap(dead_ticks_.begin(), dead_ticks_.end(), LaterTick{});
    slot(ev.slot).fn = nullptr; // destroy the cancelled handler
    free_slots_.push_back(ev.slot);
}

void EventLoop::fire(const Ref& ev) {
    advance(ev.when);
    index_[ev.slot].seq = 0; // a running event cannot be cancelled
    // Free the slot even if the handler throws (the slab reference
    // stays valid while the handler runs; reuse can only happen after).
    struct SlotGuard {
        EventLoop* loop;
        std::uint32_t slot;
        ~SlotGuard() { loop->free_slots_.push_back(slot); }
    } guard{this, ev.slot};
    ++processed_;
    // consume() fuses invoke + destroy into one indirection and leaves
    // the slot's handler empty, ready for reassignment on reuse.
    slot(ev.slot).fn.consume();
}

bool EventLoop::step_until(TimePoint limit) {
    const bool live = !heap_.empty();
    if (!dead_ticks_.empty() &&
        (!live || precedes(dead_ticks_.front(), heap_.front()))) {
        const TimePoint when = dead_ticks_.front().when;
        if (when > limit) return false;
        std::pop_heap(dead_ticks_.begin(), dead_ticks_.end(), LaterTick{});
        dead_ticks_.pop_back();
        advance(when);
        return true;
    }
    if (!live || heap_.front().when > limit) return false;
    const Ref ev = heap_.front();
    erase_at(0);
    fire(ev);
    return true;
}

bool EventLoop::step() { return step_until(TimePoint::max()); }

void EventLoop::run() {
    while (step_until(TimePoint::max())) {
    }
}

void EventLoop::run_until(TimePoint t) {
    GK_EXPECTS(t >= now_);
    while (step_until(t)) {
    }
    // The clock can advance past due boundaries with no event to carry
    // the hook; the idle jump to `t` observes them here.
    advance(t);
}

void EventLoop::run_for(Duration d) { run_until(now_ + d); }

} // namespace gatekit::sim
