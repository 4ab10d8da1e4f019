// NAT binding table: the translation state whose lifecycle the paper's
// UDP-1..5, TCP-1 and TCP-4 tests measure from the outside.
//
// Hot-path layout: hashed flow and port indexes give O(1) lookups, and a
// hierarchical timer wheel retires expired bindings in O(1) amortized —
// sweep() visits only entries whose deadline bucket has passed instead of
// scanning the whole table. Observable behavior (port assignment order,
// quarantine stamps, expiry times) is identical to the original ordered-
// map implementation: sweeps still happen at the same call sites, and a
// retired binding's quarantine window still starts at sweep time.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gateway/profile.hpp"
#include "net/addr.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"
#include "sim/timer_wheel.hpp"

namespace gatekit::gateway {

/// 5-tuple identifying a flow from the inside.
struct FlowKey {
    std::uint8_t proto = 0;
    net::Endpoint internal;
    net::Endpoint remote;

    friend constexpr auto operator<=>(const FlowKey&, const FlowKey&) =
        default;
};

/// 64-bit mix of the full 5-tuple for the hashed indexes.
struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
        std::uint64_t a = (std::uint64_t{k.internal.addr.value()} << 32) |
                          k.remote.addr.value();
        std::uint64_t b = (std::uint64_t{k.proto} << 32) |
                          (std::uint64_t{k.internal.port} << 16) |
                          k.remote.port;
        std::uint64_t x = (a * 0x9e3779b97f4a7c15ULL) ^ b;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }
};

/// Hash for internal-endpoint keys (the ReusePooled paired-pool index).
struct EndpointHash {
    std::size_t operator()(const net::Endpoint& e) const noexcept {
        std::uint64_t x = (std::uint64_t{e.addr.value()} << 16) ^ e.port;
        x *= 0x9e3779b97f4a7c15ULL;
        x ^= x >> 29;
        return static_cast<std::size_t>(x);
    }
};

struct Binding {
    FlowKey key;
    std::uint16_t external_port = 0;
    sim::TimePoint expires_at{};
    bool confirmed = false; ///< has seen inbound traffic
    // TCP state tracking, so the NAT can reap closed connections.
    bool established = false; ///< TCP three-way handshake observed
    /// Inbound SYN-ACK observed. Only consulted under a non-Forward
    /// wan_syn_policy (strict handshake tracking); legacy devices never
    /// read it.
    bool synack_in = false;
    bool fin_in = false;
    bool fin_out = false;
    std::uint64_t packets_out = 0;
    std::uint64_t packets_in = 0;
    // Timer-wheel bookkeeping, managed by BindingTable: when the active
    // wheel entry fires and the generation stamp identifying it.
    sim::TimePoint wheel_deadline{};
    std::uint64_t wheel_gen = 0;
    /// Slab index, managed by BindingTable; keys the hot deadline array.
    std::uint32_t slot = 0;
};

/// One table instance per transport protocol (UDP and TCP each get one).
class BindingTable {
public:
    BindingTable(sim::EventLoop& loop, const DeviceProfile& profile,
                 std::uint8_t proto);

    /// Find the binding for an outbound flow, creating it if absent.
    /// Returns nullptr when the table is full (per profile max) or the
    /// port pool is exhausted. Expired entries are swept lazily.
    Binding* find_or_create_outbound(const FlowKey& key);

    /// Find an existing live outbound binding without creating one (used
    /// when attributing an ICMP error's quote to a flow). Returns nullptr
    /// for unknown or expired flows; expired entries are left for sweep().
    Binding* find_outbound(const FlowKey& key);

    /// Find the (live) binding matching an inbound packet.
    Binding* find_inbound(std::uint16_t external_port,
                          const net::Endpoint& remote);

    /// Find a live binding by external port alone (hairpin lookups have
    /// no fixed remote endpoint to match).
    Binding* find_by_external(std::uint16_t external_port);

    /// Refresh a binding's timer after an outbound or inbound packet.
    /// `timeout` is the policy-chosen duration for this event.
    void refresh(Binding& b, sim::Duration timeout);

    /// Set an absolute expiry deadline (TCP transitory / FIN-linger
    /// shortcuts). Keeps the timer wheel in sync when the deadline moves
    /// earlier; all expiry writes must go through here or refresh().
    void set_expiry(Binding& b, sim::TimePoint at);

    /// Remove immediately (TCP RST, FIN linger expiry).
    void remove(const FlowKey& key);

    /// Drop every binding and all quarantine history at once — what a
    /// power-cycled gateway does to its translation state. Parked wheel
    /// entries go stale and are discarded when their buckets pop.
    void clear();

    std::size_t size();
    /// Per-protocol concurrent-binding cap from the device profile.
    std::size_t capacity_limit() const;

    /// Expiry check honoring the device's timer granularity. Reads the
    /// cached effective deadline (hot array), not the binding record.
    bool expired(const Binding& b) const {
        return loop_.now().count() >= hot_deadline_[b.slot];
    }

    /// Outbound creations refused by per_host_binding_budget (0 while the
    /// knob is disabled). Read by the supervisor's attack annotator and
    /// the attack battery's verdict oracles.
    std::uint64_t host_budget_refusals() const {
        return host_budget_refusals_;
    }

    /// Register this table's instruments (create/expire/refuse counters,
    /// occupancy + wheel-cascade gauges) under `device`. Without a bind
    /// every instrumentation site stays a branch-on-null no-op.
    void bind_observability(obs::MetricsRegistry& reg,
                            const std::string& device);

private:
    void sweep();
    std::uint16_t allocate_port(const FlowKey& key);
    /// True when `port` is claimed by a *different* internal endpoint.
    bool port_taken_by_other(std::uint16_t port,
                             const net::Endpoint& internal) const;
    sim::TimePoint quantize(sim::TimePoint t) const;
    /// Deadline at which the binding becomes observable as expired.
    sim::TimePoint effective_deadline(const Binding& b) const;
    /// Park (or re-park) the binding's expiry in the timer wheel.
    void schedule_expiry(Binding& b, sim::TimePoint at);
    void erase_external(std::uint16_t port, std::uint32_t slot);
    bool external_in_use(std::uint16_t port) const;
    void add_to_graveyard(const FlowKey& key, std::uint16_t port,
                          sim::TimePoint until);
    std::uint32_t alloc_binding();
    /// Per-host live-binding accounting; no-ops (one untaken branch)
    /// unless per_host_binding_budget is enabled. `host_release` must run
    /// before free_binding() resets the record.
    void host_claim(const Binding& b);
    void host_release(const Binding& b);
    /// Paired-pool accounting (ReusePooled only): which pool port each
    /// internal endpoint holds and how many live flows ride it. Like
    /// host_release, `internal_release` must precede free_binding().
    void internal_claim(const Binding& b);
    void internal_release(const Binding& b);
    /// Reset a slab slot for reuse. Zeroing wheel_gen makes any parked
    /// wheel entry for the old occupant stale.
    void free_binding(std::uint32_t slot);
    /// Recompute the cached effective deadline. Every expiry-affecting
    /// write funnels through here: refresh()/set_expiry() call it, and
    /// the NAT engine's direct `confirmed` flips are always followed by
    /// a refresh (first inbound always refreshes), so the cache never
    /// goes stale between expired() checks.
    void update_hot(const Binding& b) {
        hot_deadline_[b.slot] = effective_deadline(b).count();
    }

    sim::EventLoop& loop_;
    const DeviceProfile& profile_;
    std::uint8_t proto_;

    /// Binding records live in a stable slab (deque: references survive
    /// growth) addressed by slot index; the indexes below store 4-byte
    /// slots instead of full key or record copies, and the hot expiry
    /// deadlines live in their own contiguous array so lookups and
    /// sweeps touch one cache line's worth of data per check instead of
    /// a hash node.
    std::deque<Binding> slots_;
    std::vector<std::uint32_t> free_binding_slots_;
    /// Cached effective deadline (ns) per slot — the only field the
    /// per-packet expiry checks read.
    std::vector<std::int64_t> hot_deadline_;

    std::unordered_map<FlowKey, std::uint32_t, FlowKeyHash> by_flow_;
    /// External port -> slots of flows sharing it, in claim order. A
    /// port-preserving NAT maps every flow from one internal endpoint to
    /// the same external port (endpoint-independent mapping, RFC 4787)
    /// and demuxes inbound traffic by remote endpoint.
    std::unordered_map<std::uint16_t, std::vector<std::uint32_t>>
        by_external_;
    /// Recently expired flows: flow -> (old external port, quarantine end).
    std::unordered_map<FlowKey, std::pair<std::uint16_t, sim::TimePoint>,
                       FlowKeyHash>
        graveyard_;
    /// Quarantine expiry order. The quarantine duration is a per-device
    /// constant and the clock is monotonic, so insertion order is expiry
    /// order; stale entries (flow re-quarantined later) are skipped by
    /// matching the recorded end time.
    struct GraveEntry {
        FlowKey key;
        sim::TimePoint end;
    };
    std::deque<GraveEntry> grave_queue_;

    /// Expiry wheel. Entries reference pending_ slots; an entry is stale
    /// when its generation no longer matches the binding (refreshed to an
    /// earlier deadline, removed, or the slab slot reused). Entries name
    /// slab slots directly, so harvesting needs no hash lookups.
    sim::TimerWheel wheel_;
    struct PendingExpiry {
        std::uint32_t slot = 0;
        std::uint64_t gen = 0;
    };
    std::vector<PendingExpiry> pending_;
    std::vector<std::uint64_t> pending_free_;
    std::uint64_t next_gen_ = 1;

    std::uint16_t next_pool_port_;

    /// Live bindings per internal host; only populated while
    /// per_host_binding_budget is enabled.
    std::unordered_map<std::uint32_t, std::uint32_t> per_host_;

    /// Internal endpoint -> (held pool port, live-flow refcount); only
    /// populated under PortAllocation::ReusePooled.
    std::unordered_map<net::Endpoint, std::pair<std::uint16_t, std::uint32_t>,
                       EndpointHash>
        by_internal_;
    std::uint64_t host_budget_refusals_ = 0;

    // Instrumentation; all nullptr until bind_observability.
    obs::Counter* m_created_ = nullptr;
    obs::Counter* m_expired_ = nullptr;
    obs::Counter* m_refused_ = nullptr;
    obs::Counter* m_port_collisions_ = nullptr;
    obs::Counter* m_host_budget_refused_ = nullptr;
    obs::Gauge* m_occupancy_ = nullptr;
    obs::Gauge* m_cascades_ = nullptr;
};

} // namespace gatekit::gateway
