#include "gateway/home_gateway.hpp"

#include <algorithm>

namespace gatekit::gateway {

HomeGateway::HomeGateway(sim::EventLoop& loop, Config config)
    : loop_(loop), config_(std::move(config)),
      forwarder_(loop,
                 {.name = "gw-" + config_.profile.tag,
                  .inside_mac = net::MacAddr::from_index(config_.mac_index),
                  .wan_mac = net::MacAddr::from_index(
                      config_.mac_index +
                      (config_.profile.same_mac_both_sides ? 0 : 1)),
                  .inside_addr = config_.lan_addr,
                  .inside_prefix_len = config_.lan_prefix_len,
                  .inside_pool_base = config_.lan_pool_base,
                  .decrement_ttl = config_.profile.decrement_ttl,
                  .hairpin = config_.profile.hairpin,
                  .route_inside = config_.profile.unknown_proto ==
                                  UnknownProtocolPolicy::Untranslated,
                  .proxy_dns = true}),
      nat_(loop, config_.profile), fwd_(loop, config_.profile.fwd),
      dns_proxy_(forwarder_.host(), config_.profile) {
    for (const Rule& r : config_.profile.firewall_rules)
        filter_.add_rule(r);
    forwarder_.attach(*this);
}

bool HomeGateway::admit(const net::PacketView& v) {
    if (filter_.empty() && filter_.default_verdict() == RuleVerdict::kAccept)
        return true;
    const auto key = RuleChain::key_of(v);
    return (config_.profile.firewall_compiled ? filter_.evaluate_compiled(key)
                                              : filter_.evaluate(key)) ==
           RuleVerdict::kAccept;
}

void HomeGateway::forward(sim::Frame frame, net::Ipv4Addr dst, Port out) {
    const Direction dir = out == Port::kWan ? Direction::Up : Direction::Down;
    const std::size_t bytes = frame.size() - 14u;
    // A full queue's drop returns the frame to a pool, as every other
    // drop does, instead of freeing it with a discarded callback.
    if (fwd_.refuse(dir, bytes)) {
        forwarder_.drop(out, frame);
        return;
    }
    fwd_.submit(dir, bytes, [this, f = std::move(frame), dst, out]() mutable {
        forwarder_.emit(std::move(f), dst, out);
    });
}

void HomeGateway::start(std::function<void(net::Ipv4Addr)> on_ready) {
    forwarder_.start([this, on_ready = std::move(on_ready)](
                         const stack::DhcpLease& lease) {
        nat_.set_wan_addr(lease.addr);
        dns_proxy_.start({lease.dns_server, net::kDnsPort}, lease.addr);
        if (on_ready) on_ready(lease.addr);
    });
}

void HomeGateway::bind_observability(obs::MetricsRegistry* reg,
                                     obs::Tracer* tracer,
                                     const std::string& device) {
    tracer_ = tracer;
    obs_device_ = device;
    if (reg != nullptr) {
        nat_.bind_observability(*reg, device);
        fwd_.bind_observability(*reg, device);
        dns_proxy_.bind_observability(*reg, device);
        if (!filter_.empty()) filter_.attach_metrics(*reg, device);
        m_faults_ = reg->counter("gateway.faults", {{"device", device}});
    }
    forwarder_.host().bind_observability(reg, tracer);
}

void HomeGateway::inject_fault(const GatewayFault& fault) {
    ++faults_injected_;
    obs::inc(m_faults_);
    if (obs::trace_on(tracer_)) {
        auto ev = tracer_->event(obs_device_, "gateway", "fault");
        ev.with("flush_nat", static_cast<std::int64_t>(fault.flush_nat));
        ev.with("stall_ns", static_cast<std::int64_t>(fault.stall.count()));
        tracer_->emit(ev);
    }
    if (fault.flush_nat) nat_.flush();
    if (fault.stall > sim::Duration::zero())
        stalled_until_ = std::max(stalled_until_, loop_.now() + fault.stall);
    // Dump the flight recorder after applying the fault so the window
    // shows what led up to it.
    if (obs::trace_on(tracer_)) tracer_->trigger(obs_device_, "gateway.fault");
}

} // namespace gatekit::gateway
