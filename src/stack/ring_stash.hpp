// Per-thread stash of TCP send-queue storage. Every device builds fresh
// hosts, so without it each device regrew its bulk senders' rings from
// 2 KiB, and the allocator handed the memory back to the kernel between
// devices only for the next device to fault it in again. A worker thread
// keeps the largest rings its dead sockets leave and hands them to the
// next sockets it runs. The stash holds storage only, never simulation
// state: a socket writes every ring byte before it reads it, so a warm
// or a cold stash gives the same campaign. Nothing in it crosses
// threads, so it takes no lock; a ring taken on one thread and kept on
// another simply moves stashes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace gatekit::stack {

/// Storage of a TCP send queue: a power-of-two byte array, or none.
struct SendRing {
    std::unique_ptr<std::uint8_t[]> bytes;
    std::size_t capacity = 0;
};

class RingStash {
public:
    static constexpr std::size_t kMaxRings = 4;

    RingStash() = default;
    RingStash(const RingStash&) = delete;
    RingStash& operator=(const RingStash&) = delete;
    /// Unpoisons the parked rings before they are freed.
    ~RingStash();

    /// The calling thread's stash.
    static RingStash& local();

    /// A ring of at least `need` bytes: the smallest parked one that
    /// covers it, else a new one of bit_ceil(need) bytes.
    SendRing take(std::size_t need);
    /// Park `ring` if it is larger than the smallest of kMaxRings parked
    /// ones; the ring it displaces, or `ring` itself, is freed. Parked rings are poisoned
    /// under AddressSanitizer, like PacketPool's parked buffers.
    void keep(SendRing ring);

    std::size_t parked() const { return count_; }
    std::size_t parked_bytes() const;

private:
    /// Parked rings, largest first.
    std::array<SendRing, kMaxRings> rings_;
    std::size_t count_ = 0;
};

} // namespace gatekit::stack
