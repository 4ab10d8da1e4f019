// Hierarchical timer wheel over virtual time: O(1) amortized expiry
// bookkeeping for the NAT binding tables (and any other component that
// retires many timestamped items). The discrete-event loop can jump hours
// of virtual time in one step, so advancing the wheel is bounded by slots
// per level (not elapsed ticks): a 24-hour leap costs at most
// levels * slots bucket visits, and a per-level occupancy bitmap lets it
// drain only the occupied buckets among them.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace gatekit::sim {

/// Stores opaque 64-bit ids at absolute virtual-time deadlines.
/// `collect_due(now)` advances the wheel and returns every id whose
/// deadline is <= now — exact to the nanosecond, not the tick: items
/// landing in a partially elapsed tick stay parked until their precise
/// deadline passes. Ids are returned in bucket order, which callers must
/// not rely on for anything semantic.
class TimerWheel {
public:
    TimerWheel() = default;

    /// Register `id` to come due at `deadline` (absolute virtual time).
    /// Scheduling in the past is allowed; the id surfaces on the next
    /// collect_due call.
    void schedule(std::uint64_t id, TimePoint deadline);

    /// Advance to `now` and harvest all due ids. The returned reference
    /// is invalidated by the next collect_due call (schedule is safe).
    const std::vector<std::uint64_t>& collect_due(TimePoint now);

    /// Items currently parked in the wheel.
    std::size_t scheduled() const { return size_; }

    /// Cumulative bucket visits since construction: every bucket an
    /// advance steps over counts, whether or not it held items to drain.
    /// Cheap enough to count unconditionally; the observability layer
    /// snapshots this into `nat.wheel.cascades`.
    std::uint64_t cascades() const { return cascades_; }

private:
    struct Item {
        std::uint64_t id;
        std::int64_t deadline_ns;
    };

    static constexpr int kTickBits = 20; ///< ~1.05 ms virtual ticks
    static constexpr int kSlotBits = 6;
    static constexpr int kSlots = 1 << kSlotBits; ///< 64 slots per level
    static constexpr int kLevels = 6; ///< 64^6 ticks ~ 2.3 years of range
    static constexpr std::uint64_t kSlotMask = kSlots - 1;

    static std::uint64_t tick_of(std::int64_t ns) {
        return static_cast<std::uint64_t>(ns) >> kTickBits;
    }
    std::vector<Item>& slot(int level, std::uint64_t index) {
        return slots_[static_cast<std::size_t>(level) * kSlots +
                      (index & kSlotMask)];
    }
    /// Bucket `item` relative to the wheel's current tick.
    void place(const Item& item);
    /// Empty a bucket: due items land in due_, the rest re-bucket.
    void cascade(int level, std::uint64_t index, std::int64_t now_ns);

    std::vector<Item> slots_[static_cast<std::size_t>(kLevels) * kSlots];
    /// Per level, bit i set when slot i may hold items (never clear while
    /// it does), so an advance skips empty buckets without touching them.
    /// A bit may stay set on an emptied bucket until a drain clears it.
    std::uint64_t occupied_[kLevels] = {};
    std::vector<Item> scratch_; ///< drain buffer (see cascade)
    std::vector<std::uint64_t> due_;
    std::uint64_t cur_tick_ = 0;
    std::size_t size_ = 0;
    std::uint64_t cascades_ = 0;
};

} // namespace gatekit::sim
