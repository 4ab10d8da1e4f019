// TimerWheel unit tests: exact-nanosecond firing, large virtual-time
// jumps across cascade levels, and a randomized oracle comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/timer_wheel.hpp"
#include "util/rng.hpp"

using namespace gatekit;
using sim::TimePoint;
using sim::TimerWheel;

namespace {

TimePoint at_ns(std::int64_t ns) { return TimePoint{ns}; }

TEST(TimerWheel, FiresAtExactNanosecond) {
    TimerWheel w;
    w.schedule(1, at_ns(1'000'000));
    EXPECT_TRUE(w.collect_due(at_ns(999'999)).empty());
    const auto& due = w.collect_due(at_ns(1'000'000));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 1u);
    EXPECT_EQ(w.scheduled(), 0u);
}

TEST(TimerWheel, PastDeadlineSurfacesImmediately) {
    TimerWheel w;
    w.collect_due(at_ns(5'000'000'000));
    w.schedule(7, at_ns(1)); // long past
    const auto& due = w.collect_due(at_ns(5'000'000'000));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 7u);
}

TEST(TimerWheel, SubTickResolutionWithinOneSlot) {
    // Two deadlines inside the same ~1 ms tick must fire separately.
    TimerWheel w;
    w.schedule(1, at_ns(100));
    w.schedule(2, at_ns(900));
    auto due = w.collect_due(at_ns(500));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 1u);
    due = w.collect_due(at_ns(900));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 2u);
}

TEST(TimerWheel, SurvivesDayLongJumps) {
    // 24 h of virtual time in one advance — the NAT timeout binary
    // search does exactly this.
    TimerWheel w;
    const std::int64_t day = 86'400LL * 1'000'000'000;
    w.schedule(1, at_ns(day - 1));
    w.schedule(2, at_ns(day + 1));
    w.schedule(3, at_ns(30 * day)); // well within the ~2.3-year horizon
    auto due = w.collect_due(at_ns(day));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 1u);
    due = w.collect_due(at_ns(2 * day));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 2u);
    due = w.collect_due(at_ns(31 * day));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 3u);
    EXPECT_EQ(w.scheduled(), 0u);
}

TEST(TimerWheel, RandomizedAgainstOracle) {
    TimerWheel w;
    std::multimap<std::int64_t, std::uint64_t> oracle;
    Rng rng(99);
    std::int64_t now = 0;
    std::uint64_t next_id = 0;
    for (int step = 0; step < 3000; ++step) {
        if (rng.uniform(0, 2) != 0) {
            // Mixed horizons: same tick up to minutes ahead.
            const std::int64_t delta =
                std::int64_t{rng.uniform(0, 1'000'000)} *
                (rng.uniform(0, 1) ? 1 : 60'000);
            w.schedule(next_id, at_ns(now + delta));
            oracle.emplace(now + delta, next_id);
            ++next_id;
        } else {
            now += std::int64_t{rng.uniform(1, 2'000'000)} *
                   (rng.uniform(0, 1) ? 1 : 10'000);
            auto due = w.collect_due(at_ns(now));
            std::vector<std::uint64_t> expect;
            auto end = oracle.upper_bound(now);
            for (auto it = oracle.begin(); it != end; ++it)
                expect.push_back(it->second);
            oracle.erase(oracle.begin(), end);
            std::vector<std::uint64_t> got(due.begin(), due.end());
            std::sort(got.begin(), got.end());
            std::sort(expect.begin(), expect.end());
            ASSERT_EQ(got, expect) << "step " << step << " now " << now;
            ASSERT_EQ(w.scheduled(), oracle.size()) << "step " << step;
        }
    }
}

TEST(TimerWheel, DueOrderAndBucketVisitsPinned) {
    // The unsorted due order and cascades() for a seeded script, pinned:
    // nat.wheel.cascades (and through it the metrics snapshots and time
    // series) reports cascades(), so how the wheel walks its buckets is
    // part of the campaign bytes. Horizons run from the current tick past
    // the top level's ~2.3-year range; advances from sub-tick steps to
    // ~100-day jumps.
    TimerWheel w;
    std::uint64_t state = 7;
    const auto next = [&state] {
        std::uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    };
    static const std::int64_t kScale[] = {
        1, 1'000, 1'000'000, 1'000'000'000, 60'000'000'000,
        86'400'000'000'000};
    std::int64_t now = 0;
    std::uint64_t next_id = 0;
    std::uint64_t collected = 0;
    std::uint64_t digest = 14695981039346656037ULL; // FNV-1a over due ids
    for (int step = 0; step < 4000; ++step) {
        if (next() % 3 != 0) {
            const auto delta = static_cast<std::int64_t>(next() % 1000) *
                               kScale[next() % 6];
            w.schedule(next_id++, at_ns(now + delta));
            continue;
        }
        const auto r = next();
        now += r % 20 == 0
                   ? static_cast<std::int64_t>(next() % 100) * kScale[5]
                   : static_cast<std::int64_t>(next() % 2'000'000) *
                         (r % 4 == 0 ? 10'000 : 1);
        for (const std::uint64_t id : w.collect_due(at_ns(now))) {
            digest = (digest ^ id) * 1099511628211ULL;
            ++collected;
        }
    }
    EXPECT_EQ(collected, 2573u);
    EXPECT_EQ(digest, 516089928732972406ULL);
    EXPECT_EQ(w.cascades(), 58744u);
    EXPECT_EQ(w.scheduled(), next_id - collected);
}

} // namespace
