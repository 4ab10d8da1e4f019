#include "gateway/binding_table.hpp"

#include <algorithm>

#include "net/ipv4.hpp"
#include "util/assert.hpp"

namespace gatekit::gateway {

BindingTable::BindingTable(sim::EventLoop& loop,
                           const DeviceProfile& profile, std::uint8_t proto)
    : loop_(loop), profile_(profile), proto_(proto),
      next_pool_port_(profile.pool_begin) {}

void BindingTable::bind_observability(obs::MetricsRegistry& reg,
                                      const std::string& device) {
    const std::string proto = proto_ == net::proto::kUdp ? "udp" : "tcp";
    const auto labels = reg.label_set({{"device", device}, {"proto", proto}});
    m_created_ = reg.counter("nat.binding.created", labels);
    m_expired_ = reg.counter("nat.binding.expired", labels);
    m_refused_ = reg.counter("nat.binding.refused", labels);
    m_port_collisions_ = reg.counter("nat.port.collisions", labels);
    m_host_budget_refused_ = reg.counter("nat.binding.host_budget_refused",
                                         labels);
    m_occupancy_ = reg.gauge("nat.binding.occupancy", labels);
    m_cascades_ = reg.gauge("nat.wheel.cascades", labels);
}

std::size_t BindingTable::capacity_limit() const {
    if (proto_ == net::proto::kUdp && profile_.max_udp_bindings >= 0)
        return static_cast<std::size_t>(profile_.max_udp_bindings);
    return static_cast<std::size_t>(profile_.max_tcp_bindings);
}

sim::TimePoint BindingTable::quantize(sim::TimePoint t) const {
    const auto g = profile_.udp.granularity;
    if (g <= sim::Duration::zero()) return t;
    const auto ticks = (t.count() + g.count() - 1) / g.count();
    return sim::TimePoint{ticks * g.count()};
}

sim::TimePoint BindingTable::effective_deadline(const Binding& b) const {
    // Coarse timers only affect confirmed bindings: the paper's UDP-1
    // results are tight for every device, while UDP-2 shows wide
    // quartiles on the coarse-timer models (we/al/je/ng5).
    return b.confirmed ? quantize(b.expires_at) : b.expires_at;
}

void BindingTable::schedule_expiry(Binding& b, sim::TimePoint at) {
    b.wheel_deadline = at;
    b.wheel_gen = next_gen_++;
    std::uint64_t idx;
    if (!pending_free_.empty()) {
        idx = pending_free_.back();
        pending_free_.pop_back();
        pending_[idx] = PendingExpiry{b.slot, b.wheel_gen};
    } else {
        idx = pending_.size();
        pending_.push_back(PendingExpiry{b.slot, b.wheel_gen});
    }
    wheel_.schedule(idx, at);
}

std::uint32_t BindingTable::alloc_binding() {
    if (!free_binding_slots_.empty()) {
        const std::uint32_t s = free_binding_slots_.back();
        free_binding_slots_.pop_back();
        slots_[s].slot = s;
        return s;
    }
    const auto s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_.back().slot = s;
    hot_deadline_.push_back(0);
    return s;
}

void BindingTable::host_claim(const Binding& b) {
    if (profile_.per_host_binding_budget < 0) return;
    ++per_host_[b.key.internal.addr.value()];
}

void BindingTable::host_release(const Binding& b) {
    if (profile_.per_host_binding_budget < 0) return;
    auto it = per_host_.find(b.key.internal.addr.value());
    if (it == per_host_.end()) return;
    if (--it->second == 0) per_host_.erase(it);
}

void BindingTable::internal_claim(const Binding& b) {
    if (profile_.port_allocation != PortAllocation::ReusePooled) return;
    auto& held = by_internal_[b.key.internal];
    held.first = b.external_port;
    ++held.second;
}

void BindingTable::internal_release(const Binding& b) {
    if (profile_.port_allocation != PortAllocation::ReusePooled) return;
    auto it = by_internal_.find(b.key.internal);
    if (it == by_internal_.end()) return;
    if (--it->second.second == 0) by_internal_.erase(it);
}

void BindingTable::free_binding(std::uint32_t slot) {
    slots_[slot] = Binding{};
    free_binding_slots_.push_back(slot);
}

void BindingTable::add_to_graveyard(const FlowKey& key, std::uint16_t port,
                                    sim::TimePoint until) {
    graveyard_[key] = {port, until};
    grave_queue_.push_back(GraveEntry{key, until});
}

void BindingTable::erase_external(std::uint16_t port, std::uint32_t slot) {
    auto pit = by_external_.find(port);
    if (pit == by_external_.end()) return;
    auto& slots = pit->second;
    auto it = std::find(slots.begin(), slots.end(), slot);
    if (it == slots.end()) return;
    slots.erase(it); // preserves claim order of the remaining flows
    if (slots.empty()) by_external_.erase(pit);
}

bool BindingTable::external_in_use(std::uint16_t port) const {
    return by_external_.find(port) != by_external_.end();
}

void BindingTable::sweep() {
    const auto now = loop_.now();
    // Harvest wheel entries whose scheduled deadline has passed. An entry
    // is a conservative lower bound on its binding's effective deadline
    // (refreshes only move it by rescheduling when earlier), so a binding
    // that pops unexpired is simply re-parked at its real deadline.
    for (std::uint64_t idx : wheel_.collect_due(now)) {
        const PendingExpiry rec = pending_[idx];
        pending_free_.push_back(idx);
        Binding& b = slots_[rec.slot];
        // A removed binding or reused slot never matches: free_binding
        // zeroes wheel_gen and generations are never recycled.
        if (b.wheel_gen != rec.gen) continue;
        const sim::TimePoint deadline{hot_deadline_[rec.slot]};
        if (now >= deadline) {
            add_to_graveyard(b.key, b.external_port,
                             now + profile_.port_quarantine);
            erase_external(b.external_port, rec.slot);
            by_flow_.erase(b.key);
            host_release(b);
            internal_release(b);
            obs::inc(m_expired_);
            free_binding(rec.slot);
        } else {
            schedule_expiry(b, deadline);
        }
    }
    obs::set(m_occupancy_, static_cast<double>(by_flow_.size()));
    obs::set(m_cascades_, static_cast<double>(wheel_.cascades()));
    while (!grave_queue_.empty() && now >= grave_queue_.front().end) {
        const GraveEntry& front = grave_queue_.front();
        auto it = graveyard_.find(front.key);
        if (it != graveyard_.end() && it->second.second == front.end)
            graveyard_.erase(it);
        grave_queue_.pop_front();
    }
}

bool BindingTable::port_taken_by_other(std::uint16_t port,
                                       const net::Endpoint& internal) const {
    auto pit = by_external_.find(port);
    if (pit == by_external_.end()) return false;
    for (const std::uint32_t slot : pit->second)
        if (slots_[slot].key.internal != internal) return true;
    return false;
}

std::uint16_t BindingTable::allocate_port(const FlowKey& key) {
    if (profile_.port_allocation == PortAllocation::ReusePooled) {
        // Paired pooling: while any of this endpoint's flows lives, new
        // flows share its pool port (endpoint-independent mapping). The
        // port cannot collide — find_or_create_outbound already missed
        // by_flow_, so this (internal, remote) pair is new on it.
        auto it = by_internal_.find(key.internal);
        if (it != by_internal_.end()) return it->second.first;
    }
    if (profile_.port_allocation == PortAllocation::PreserveSourcePort) {
        bool quarantined = false;
        auto it = graveyard_.find(key);
        if (it != graveyard_.end() && loop_.now() < it->second.second &&
            it->second.first == key.internal.port)
            quarantined = true;
        // The same internal endpoint may share its preserved external
        // port across flows (endpoint-independent mapping); only a
        // different internal endpoint blocks preservation.
        if (!quarantined &&
            !port_taken_by_other(key.internal.port, key.internal))
            return key.internal.port;
        // Preservation blocked (quarantine or another endpoint owns the
        // port) counts as one collision; the pool scan adds the rest.
        obs::inc(m_port_collisions_);
    }
    // Sequential scan of the pool for a completely free port.
    const auto pool_size =
        static_cast<std::uint32_t>(profile_.pool_end - profile_.pool_begin + 1);
    for (std::uint32_t i = 0; i < pool_size; ++i) {
        std::uint16_t candidate = next_pool_port_;
        next_pool_port_ = candidate >= profile_.pool_end
                              ? profile_.pool_begin
                              : static_cast<std::uint16_t>(candidate + 1);
        if (!external_in_use(candidate)) return candidate;
        obs::inc(m_port_collisions_);
    }
    return 0; // pool exhausted
}

Binding* BindingTable::find_or_create_outbound(const FlowKey& key) {
    sweep();
    auto it = by_flow_.find(key);
    if (it != by_flow_.end()) return &slots_[it->second];

    if (by_flow_.size() >= capacity_limit()) {
        obs::inc(m_refused_);
        return nullptr;
    }
    if (profile_.per_host_binding_budget >= 0) {
        auto hit = per_host_.find(key.internal.addr.value());
        if (hit != per_host_.end() &&
            hit->second >=
                static_cast<std::uint32_t>(profile_.per_host_binding_budget)) {
            ++host_budget_refusals_;
            obs::inc(m_host_budget_refused_);
            return nullptr;
        }
    }
    const std::uint16_t port = allocate_port(key);
    if (port == 0) {
        obs::inc(m_refused_);
        return nullptr;
    }

    const std::uint32_t slot = alloc_binding();
    Binding& b = slots_[slot];
    b.key = key;
    b.external_port = port;
    b.expires_at = loop_.now() + profile_.udp.initial;
    const auto [ins, ok] = by_flow_.emplace(key, slot);
    GK_ASSERT(ok);
    (void)ins;
    by_external_[port].push_back(slot);
    host_claim(b);
    internal_claim(b);
    update_hot(b);
    schedule_expiry(b, effective_deadline(b));
    obs::inc(m_created_);
    obs::set(m_occupancy_, static_cast<double>(by_flow_.size()));
    return &b;
}

Binding* BindingTable::find_outbound(const FlowKey& key) {
    auto it = by_flow_.find(key);
    if (it == by_flow_.end()) return nullptr;
    Binding& b = slots_[it->second];
    return expired(b) ? nullptr : &b;
}

Binding* BindingTable::find_inbound(std::uint16_t external_port,
                                    const net::Endpoint& remote) {
    auto pit = by_external_.find(external_port);
    if (pit == by_external_.end()) return nullptr;
    auto& slots = pit->second;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::uint32_t slot = slots[i];
        Binding& b = slots_[slot];
        // Endpoint-dependent filtering: the inbound peer must match.
        if (b.key.remote != remote) continue;
        if (expired(b)) {
            add_to_graveyard(b.key, b.external_port,
                             loop_.now() + profile_.port_quarantine);
            slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
            if (slots.empty()) by_external_.erase(pit);
            by_flow_.erase(b.key);
            host_release(b);
            internal_release(b);
            free_binding(slot);
            obs::inc(m_expired_);
            obs::set(m_occupancy_, static_cast<double>(by_flow_.size()));
            return nullptr;
        }
        return &b;
    }
    return nullptr;
}

Binding* BindingTable::find_by_external(std::uint16_t external_port) {
    auto pit = by_external_.find(external_port);
    if (pit == by_external_.end()) return nullptr;
    for (const std::uint32_t slot : pit->second)
        if (!expired(slots_[slot])) return &slots_[slot];
    return nullptr;
}

void BindingTable::refresh(Binding& b, sim::Duration timeout) {
    set_expiry(b, loop_.now() + timeout);
}

void BindingTable::set_expiry(Binding& b, sim::TimePoint at) {
    b.expires_at = at;
    const auto deadline = effective_deadline(b);
    hot_deadline_[b.slot] = deadline.count();
    // Later deadlines ride the existing wheel entry (it re-parks itself on
    // pop); earlier ones need a fresh entry or sweep() would miss them.
    if (deadline < b.wheel_deadline) schedule_expiry(b, deadline);
}

void BindingTable::remove(const FlowKey& key) {
    auto it = by_flow_.find(key);
    if (it == by_flow_.end()) return;
    const std::uint32_t slot = it->second;
    erase_external(slots_[slot].external_port, slot);
    by_flow_.erase(it);
    host_release(slots_[slot]);
    internal_release(slots_[slot]);
    // The wheel entry goes stale and is discarded when it pops.
    free_binding(slot);
}

void BindingTable::clear() {
    by_flow_.clear();
    by_external_.clear();
    graveyard_.clear();
    grave_queue_.clear();
    per_host_.clear();
    by_internal_.clear();
    // Reset every slab slot (zeroed generations stale out parked wheel
    // entries) and rebuild the free list; the slab itself is retained.
    free_binding_slots_.clear();
    for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size()); i-- > 0;)
        free_binding(i);
    obs::set(m_occupancy_, 0.0);
    // Wheel entries all reference now-absent slots; each is recycled into
    // pending_free_ as its bucket pops, so no explicit wheel reset needed.
}

std::size_t BindingTable::size() {
    sweep();
    return by_flow_.size();
}

} // namespace gatekit::gateway
