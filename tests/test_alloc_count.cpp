// Exact work counts for the observability binding. Wall-clock timings on
// a shared host swing too far to gate a change, but the number of heap
// allocations a fixed piece of work makes repeats exactly, so it is
// pinned here. The executable replaces the global operator new with a
// counting one (no LD_PRELOAD); it is built only without sanitizers,
// whose runtimes own the allocator.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "devices/population.hpp"
#include "harness/testbed.hpp"
#include "obs/obs.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
    ++g_allocations;
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    ++g_allocations;
    return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    ++g_allocations;
    return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace gatekit;

// One population_campaign device as ShardScheduler::run builds it: the
// default population's first gateway with its two firewall rules, a
// one-device testbed under its roster number, and the shard's
// Observability bound after the device is added.
TEST(AllocCount, PopulationDeviceAttachObservability) {
    devices::PopulationSpec spec;
    spec.count = 1;
    spec.firewall_rules = 2;
    const auto roster = devices::sample_roster(spec);

    sim::EventLoop loop;
    obs::Observability obs(loop);
    harness::Testbed tb(loop);
    tb.add_device(roster[0], 1);

    const std::uint64_t before = g_allocations;
    tb.attach_observability(&obs);
    const std::uint64_t attach = g_allocations - before;

    // 461 before the registry interned names and label sets and kept
    // its entries in a chunked arena. A change that moves this count
    // says why; a decrease re-pins it.
    EXPECT_EQ(obs.metrics().size(), 73u);
    EXPECT_EQ(attach, 116u);
}
