#include "sim/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <vector>

#include "util/assert.hpp"

using namespace gatekit::sim;

TEST(EventLoop, StartsAtZero) {
    EventLoop loop;
    EXPECT_EQ(loop.now(), TimePoint{0});
    EXPECT_FALSE(loop.step());
}

TEST(EventLoop, RunsEventsInTimeOrder) {
    EventLoop loop;
    std::vector<int> order;
    loop.after(3_sec, [&] { order.push_back(3); });
    loop.after(1_sec, [&] { order.push_back(1); });
    loop.after(2_sec, [&] { order.push_back(2); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), TimePoint{3_sec});
}

TEST(EventLoop, SameTimestampIsFifo) {
    EventLoop loop;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        loop.after(1_sec, [&order, i] { order.push_back(i); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, RunUntilAdvancesClockPastLastEvent) {
    EventLoop loop;
    int fired = 0;
    loop.after(1_sec, [&] { ++fired; });
    loop.after(10_sec, [&] { ++fired; });
    loop.run_until(TimePoint{5_sec});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.now(), TimePoint{5_sec});
    loop.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventLoop, RunUntilIncludesBoundary) {
    EventLoop loop;
    int fired = 0;
    loop.after(5_sec, [&] { ++fired; });
    loop.run_until(TimePoint{5_sec});
    EXPECT_EQ(fired, 1);
}

TEST(EventLoop, NestedSchedulingFromHandler) {
    EventLoop loop;
    std::vector<TimePoint> at;
    loop.after(1_sec, [&] {
        at.push_back(loop.now());
        loop.after(1_sec, [&] { at.push_back(loop.now()); });
    });
    loop.run();
    ASSERT_EQ(at.size(), 2u);
    EXPECT_EQ(at[0], TimePoint{1_sec});
    EXPECT_EQ(at[1], TimePoint{2_sec});
}

TEST(EventLoop, CancelPreventsExecution) {
    EventLoop loop;
    int fired = 0;
    auto id = loop.after(1_sec, [&] { ++fired; });
    loop.after(2_sec, [&] { ++fired; });
    loop.cancel(id);
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.events_processed(), 1u);
}

TEST(EventLoop, CancelIsIdempotent) {
    EventLoop loop;
    int fired = 0;
    auto id = loop.after(1_sec, [&] { ++fired; });
    loop.cancel(id);
    loop.cancel(id);
    loop.cancel(EventId{}); // null handle is a no-op
    loop.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventLoop, CancelAfterFireLeavesNoState) {
    // The deadline-whose-handler-is-running shape: cancel from inside
    // the handler, and again after it fired. Neither may leave anything
    // behind, and the stale handle must not reach the event that reuses
    // its slot.
    EventLoop loop;
    EventId self;
    self = loop.after(1_sec, [&] { loop.cancel(self); });
    loop.run();
    loop.cancel(self);
    EXPECT_EQ(loop.pending(), 0u);
    EXPECT_EQ(loop.now(), TimePoint{1_sec});

    int fired = 0;
    loop.after(1_sec, [&] { ++fired; }); // reuses the freed slot
    EXPECT_EQ(loop.pending(), 1u);
    loop.cancel(self);
    EXPECT_EQ(loop.pending(), 1u);
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, CancelledDeadlineStillAdvancesTheClock) {
    EventLoop loop;
    int fired = 0;
    loop.after(1_sec, [&] { ++fired; });
    const auto far = loop.after(10_sec, [&] { ++fired; });
    loop.cancel(far);
    EXPECT_EQ(loop.pending(), 1u); // live events only
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.now(), TimePoint{10_sec});
}

TEST(EventLoop, SchedulingInThePastViolatesContract) {
    EventLoop loop;
    loop.after(2_sec, [] {});
    loop.run();
    EXPECT_THROW(loop.at(TimePoint{1_sec}, [] {}),
                 gatekit::ContractViolation);
    EXPECT_THROW(loop.after(Duration{-1}, [] {}),
                 gatekit::ContractViolation);
}

TEST(EventLoop, LongVirtualHorizonIsExact) {
    // A 24-hour timer must fire at exactly 86400 s of virtual time.
    EventLoop loop;
    TimePoint fired_at{};
    loop.after(std::chrono::hours(24), [&] { fired_at = loop.now(); });
    loop.run();
    EXPECT_EQ(fired_at, TimePoint{std::chrono::hours(24)});
}

// ---------------------------------------------------------------------
// Differential test: seeded random scripts of at/after/cancel/step/
// run_until/run, with handlers that schedule and cancel, replayed on the
// real loop and on a small lazy-cancel reference model. Both must agree
// on fire order, now() at each fire, advance-hook call times and the
// final clock.

namespace {

/// Lazy-cancel reference: an ordered map of (when, seq) -> handler and a
/// set of cancelled seqs. Every queued entry, cancelled or not, consults
/// the hook and advances the clock when it comes up; only live ones run.
class ModelLoop {
public:
    using Handle = std::uint64_t;

    TimePoint now() const { return now_; }
    std::uint64_t events_processed() const { return processed_; }

    Handle at(TimePoint t, std::function<void()> fn) {
        EXPECT_GE(t, now_);
        const Handle seq = next_seq_++;
        queue_.emplace(std::make_pair(t, seq), std::move(fn));
        return seq;
    }
    Handle after(Duration d, std::function<void()> fn) {
        return at(now_ + d, std::move(fn));
    }
    void cancel(Handle h) {
        if (h != 0) cancelled_.insert(h);
    }
    bool step() {
        if (queue_.empty()) return false;
        auto node = queue_.extract(queue_.begin());
        const auto [when, seq] = node.key();
        if (hook_ != nullptr && when >= hook_due_)
            hook_due_ = hook_->on_advance(when);
        now_ = when;
        if (!cancelled_.contains(seq)) {
            ++processed_;
            node.mapped()();
        }
        return true;
    }
    void run() {
        while (step()) {
        }
    }
    void run_until(TimePoint t) {
        while (!queue_.empty() && queue_.begin()->first.first <= t) step();
        if (hook_ != nullptr && t >= hook_due_)
            hook_due_ = hook_->on_advance(t);
        now_ = t;
    }
    void set_advance_hook(AdvanceHook* hook) {
        hook_ = hook;
        hook_due_ = TimePoint{};
    }

private:
    std::map<std::pair<TimePoint, std::uint64_t>, std::function<void()>>
        queue_;
    std::set<std::uint64_t> cancelled_;
    TimePoint now_{0};
    std::uint64_t next_seq_ = 1;
    std::uint64_t processed_ = 0;
    AdvanceHook* hook_ = nullptr;
    TimePoint hook_due_{};
};

struct SplitMix {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    int below(int n) {
        return static_cast<int>(next() % static_cast<std::uint64_t>(n));
    }
    template <class T>
    const T& pick(const std::vector<T>& v) {
        return v[next() % v.size()];
    }
};

/// One observable step of a script run.
struct Obs {
    char kind; // 'F' fire, 'H' hook, 'S' step, 'U' run_until, 'R' run
    std::int64_t label;
    std::int64_t now_ns;
    bool operator==(const Obs&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Obs& o) {
    return os << o.kind << '(' << o.label << " @" << o.now_ns << ')';
}

using Trace = std::vector<Obs>;

/// Samples on a 7 ms grid, as TimeseriesSampler does on its interval.
class GridHook final : public AdvanceHook {
public:
    explicit GridHook(Trace& trace) : trace_(trace) {}
    TimePoint on_advance(TimePoint t) override {
        trace_.push_back({'H', -1, t.count()});
        const std::int64_t iv = Duration(7_ms).count();
        return TimePoint(Duration((t.count() / iv + 1) * iv));
    }

private:
    Trace& trace_;
};

template <class Loop>
class Script {
public:
    using Handle = decltype(std::declval<Loop&>().at(TimePoint{}, {}));

    explicit Script(std::uint64_t seed) : seed_(seed), hook_(trace_) {}

    Trace run() {
        SplitMix rng{seed_};
        if (rng.below(2) == 0) loop_.set_advance_hook(&hook_);
        const int ops = 40 + rng.below(160);
        for (int i = 0; i < ops; ++i) {
            switch (rng.below(16)) {
            case 0: case 1: case 2: case 3: case 4:
                schedule(loop_.now() + delay(rng));
                break;
            case 5: // an instant that already has events queued
                if (!when_.empty())
                    schedule(std::max(loop_.now(), rng.pick(when_)));
                break;
            case 6: case 7:
                cancel_any(rng);
                break;
            case 8: // a fired handle, whose slot a later event may reuse
                if (!fired_.empty()) {
                    loop_.cancel(handles_[rng.pick(fired_)]);
                    schedule(loop_.now() + delay(rng));
                }
                break;
            case 9: case 10: case 11: {
                const bool ran = loop_.step();
                trace_.push_back({'S', ran, loop_.now().count()});
                break;
            }
            case 12: case 13:
                loop_.run_until(loop_.now() + delay(rng));
                trace_.push_back({'U', -1, loop_.now().count()});
                break;
            case 14:
                if (rng.below(4) == 0) {
                    loop_.run();
                    trace_.push_back({'R', -1, loop_.now().count()});
                }
                break;
            case 15: // reinstall: the hook fires at the next advance
                loop_.set_advance_hook(rng.below(3) == 0 ? nullptr : &hook_);
                break;
            }
        }
        loop_.run();
        trace_.push_back(
            {'R', static_cast<std::int64_t>(loop_.events_processed()),
             loop_.now().count()});
        return trace_;
    }

private:
    static Duration delay(SplitMix& rng) {
        // Mostly short, often zero: dense same-instant ticks.
        switch (rng.below(4)) {
        case 0: return Duration{0};
        case 1: return Duration(std::chrono::milliseconds(rng.below(3)));
        case 2: return Duration(std::chrono::milliseconds(rng.below(20)));
        default: return Duration(std::chrono::microseconds(rng.below(40000)));
        }
    }

    void schedule(TimePoint t) {
        const std::size_t label = handles_.size();
        handles_.emplace_back();
        when_.push_back(t);
        handles_[label] = loop_.at(t, [this, label] { fire(label); });
    }

    void cancel_any(SplitMix& rng) {
        if (!handles_.empty()) loop_.cancel(rng.pick(handles_));
    }

    void fire(std::size_t label) {
        trace_.push_back({'F', static_cast<std::int64_t>(label),
                          loop_.now().count()});
        fired_.push_back(label);
        // Per-label choices: identical in both runs while they agree.
        SplitMix rng{seed_ * 1000003u + label};
        if (handles_.size() < 400) {
            const int n = rng.below(3);
            for (int i = 0; i < n; ++i) schedule(loop_.now() + delay(rng));
        }
        switch (rng.below(6)) {
        case 0: // itself, while its handler runs
            loop_.cancel(handles_[label]);
            break;
        case 1: { // another event due at this same instant
            for (std::size_t i = handles_.size(); i-- > 0;)
                if (i != label && when_[i] == loop_.now()) {
                    loop_.cancel(handles_[i]);
                    break;
                }
            break;
        }
        case 2:
            cancel_any(rng);
            break;
        case 3: // an already-fired event, then reuse its slot
            loop_.cancel(handles_[rng.pick(fired_)]);
            schedule(loop_.now() + delay(rng));
            break;
        default:
            break;
        }
    }

    std::uint64_t seed_;
    Loop loop_;
    Trace trace_;
    GridHook hook_;
    std::vector<Handle> handles_;
    std::vector<TimePoint> when_;
    std::vector<std::size_t> fired_;
};

} // namespace

TEST(EventLoop, RandomScriptsMatchLazyCancelModel) {
    std::size_t fires = 0;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        const Trace want = Script<ModelLoop>(seed).run();
        const Trace got = Script<EventLoop>(seed).run();
        std::size_t i = 0;
        while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
        if (i < want.size() && i < got.size())
            FAIL() << "seed " << seed << ": entry " << i << " of "
                   << want.size() << " is " << got[i] << ", model says "
                   << want[i];
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        fires += static_cast<std::size_t>(
            std::count_if(got.begin(), got.end(),
                          [](const Obs& o) { return o.kind == 'F'; }));
    }
    EXPECT_GT(fires, 10000u); // the scripts are not trivially empty
}
