#include "stack/ring_stash.hpp"

#include <bit>
#include <utility>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GATEKIT_STASH_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define GATEKIT_STASH_ASAN 1
#endif

#if defined(GATEKIT_STASH_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace gatekit::stack {

namespace {

// A parked ring is poisoned so that a span a dead socket's segment kept
// into it traps under ASan instead of reading the next socket's bytes.
void poison(const SendRing& ring) {
#if defined(GATEKIT_STASH_ASAN)
    if (ring.capacity != 0)
        __asan_poison_memory_region(ring.bytes.get(), ring.capacity);
#else
    (void)ring;
#endif
}

void unpoison(const SendRing& ring) {
#if defined(GATEKIT_STASH_ASAN)
    if (ring.capacity != 0)
        __asan_unpoison_memory_region(ring.bytes.get(), ring.capacity);
#else
    (void)ring;
#endif
}

} // namespace

RingStash::~RingStash() {
    for (std::size_t i = 0; i < count_; ++i) unpoison(rings_[i]);
}

RingStash& RingStash::local() {
    thread_local RingStash stash;
    return stash;
}

SendRing RingStash::take(std::size_t need) {
    // Largest first: the last one that covers `need` is the smallest.
    std::size_t pick = count_;
    for (std::size_t i = 0; i < count_ && rings_[i].capacity >= need; ++i)
        pick = i;
    if (pick == count_) {
        const std::size_t capacity = std::bit_ceil(need);
        return {std::make_unique_for_overwrite<std::uint8_t[]>(capacity),
                capacity};
    }
    SendRing ring = std::move(rings_[pick]);
    for (std::size_t i = pick; i + 1 < count_; ++i)
        rings_[i] = std::move(rings_[i + 1]);
    --count_;
    unpoison(ring);
    return ring;
}

void RingStash::keep(SendRing ring) {
    if (ring.capacity == 0) return;
    if (count_ == kMaxRings) {
        if (ring.capacity <= rings_[count_ - 1].capacity) return;
        unpoison(rings_[count_ - 1]);
        rings_[count_ - 1] = {}; // frees the smallest
        --count_;
    }
    std::size_t at = count_;
    while (at > 0 && rings_[at - 1].capacity < ring.capacity) {
        rings_[at] = std::move(rings_[at - 1]);
        --at;
    }
    poison(ring);
    rings_[at] = std::move(ring);
    ++count_;
}

std::size_t RingStash::parked_bytes() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i < count_; ++i) total += rings_[i].capacity;
    return total;
}

} // namespace gatekit::stack
