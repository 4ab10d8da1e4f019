#include "sim/timer_wheel.hpp"

#include <algorithm>
#include <bit>

namespace gatekit::sim {

void TimerWheel::place(const Item& item) {
    std::uint64_t t = tick_of(item.deadline_ns);
    if (t < cur_tick_) t = cur_tick_;
    const std::uint64_t delta = t - cur_tick_;

    int level = 0;
    std::uint64_t span = kSlots; // slots covered by levels 0..level
    while (level < kLevels - 1 && delta >= span) {
        ++level;
        span <<= kSlotBits;
    }
    // Beyond the top level's horizon (~2.3 years): park in the farthest
    // top-level slot and re-bucket when it comes around.
    if (delta >= span) t = cur_tick_ + span - 1;

    const std::uint64_t index = t >> (kSlotBits * level);
    slot(level, index).push_back(item);
    occupied_[level] |= std::uint64_t{1} << (index & kSlotMask);
}

void TimerWheel::cascade(int level, std::uint64_t index, std::int64_t now_ns) {
    // place() may re-bucket an item into the very slot being drained
    // (tick indices alias mod 64), so drain via a scratch copy.
    scratch_.clear();
    scratch_.swap(slot(level, index));
    occupied_[level] &= ~(std::uint64_t{1} << (index & kSlotMask));
    for (const Item& item : scratch_) {
        if (item.deadline_ns <= now_ns) {
            due_.push_back(item.id);
            --size_;
        } else {
            place(item);
        }
    }
}

const std::vector<std::uint64_t>& TimerWheel::collect_due(TimePoint now) {
    due_.clear();
    const std::int64_t now_ns = now.count();
    const std::uint64_t target = tick_of(now_ns);

    if (target > cur_tick_) {
        const std::uint64_t old = cur_tick_;
        cur_tick_ = target;
        // The old current slot may hold sub-tick stragglers whose tick has
        // now fully elapsed.
        ++cascades_;
        cascade(0, old, now_ns);
        for (int level = 0; level < kLevels; ++level) {
            const int shift = kSlotBits * level;
            const std::uint64_t from = old >> shift;
            const std::uint64_t to = target >> shift;
            if (from == to) break; // higher levels unchanged too
            const std::uint64_t steps =
                std::min<std::uint64_t>(to - from, kSlots);
            // cascades() counts every slot stepped over; only occupied
            // ones are drained, in stepping order. The bitmap is read
            // afresh at each step, so the sweep drains exactly the buckets
            // a bucket-by-bucket walk would find occupied, including any a
            // drain re-placed items into.
            cascades_ += steps;
            for (std::uint64_t s = 1; s <= steps; ++s) {
                const int pos = static_cast<int>((from + s) & kSlotMask);
                const std::uint64_t ahead = std::rotr(occupied_[level], pos);
                if (ahead == 0) break;
                s += static_cast<std::uint64_t>(std::countr_zero(ahead));
                if (s > steps) break;
                cascade(level, from + s, now_ns);
            }
        }
    }

    // Items sharing the current (partially elapsed) tick: extract the due
    // ones in place, keep the rest parked.
    std::vector<Item>& cur = slot(0, target);
    if (!cur.empty()) {
        auto keep = cur.begin();
        for (auto it = cur.begin(); it != cur.end(); ++it) {
            if (it->deadline_ns <= now_ns) {
                due_.push_back(it->id);
                --size_;
            } else {
                *keep++ = *it;
            }
        }
        cur.erase(keep, cur.end());
    }
    return due_;
}

void TimerWheel::schedule(std::uint64_t id, TimePoint deadline) {
    place(Item{id, deadline.count()});
    ++size_;
}

} // namespace gatekit::sim
