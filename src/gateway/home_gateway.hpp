// HomeGateway: a complete simulated CPE device. A Forwarder skeleton
// (a Host with ARP, DHCP client/server and its own sockets, plus the NIC
// frame hooks that are the whole datapath) carries this device's
// policy: a stall window, the FORWARD chain, the NatEngine, the FwdPath
// forwarding-performance model and the Untranslated router fallback,
// with a DNS proxy on the host. Behavior is entirely driven by its
// DeviceProfile; src/devices instantiates the paper's 34 models.
#pragma once

#include <functional>

#include "gateway/dns_proxy.hpp"
#include "gateway/forwarder.hpp"
#include "gateway/fwd_path.hpp"
#include "gateway/nat_engine.hpp"
#include "gateway/profile.hpp"
#include "gateway/rule_chain.hpp"

namespace gatekit::gateway {

/// A scripted device fault. `flush_nat` models the state loss of a power
/// cycle (every binding, ICMP query id, and IP-only mapping forgotten);
/// `stall` models the outage window during which the datapath silently
/// drops traffic in both directions. The gateway's own stack (DHCP
/// leases, DNS proxy sockets) survives — the paper's devices kept their
/// WAN lease across short reboots, and losing it would turn every fault
/// into a full re-provisioning cycle.
struct GatewayFault {
    bool flush_nat = true;
    sim::Duration stall{0};
};

class HomeGateway {
public:
    struct Config {
        DeviceProfile profile;
        net::Ipv4Addr lan_addr{192, 168, 1, 1};
        int lan_prefix_len = 24;
        net::Ipv4Addr lan_pool_base{192, 168, 1, 100};
        /// Base index for deterministic MAC assignment.
        std::uint32_t mac_index = 1000;
    };

    HomeGateway(sim::EventLoop& loop, Config config);

    HomeGateway(const HomeGateway&) = delete;
    HomeGateway& operator=(const HomeGateway&) = delete;

    void connect_lan(sim::Link& link, sim::Link::Side side) {
        forwarder_.connect(Port::kInside, link, side);
    }
    void connect_wan(sim::Link& link, sim::Link::Side side) {
        forwarder_.connect(Port::kWan, link, side);
    }

    /// Bring the device up: run the WAN DHCP client; once a lease arrives
    /// the NAT, LAN DHCP server, and DNS proxy become operational and
    /// `on_ready` fires with the acquired WAN address.
    void start(std::function<void(net::Ipv4Addr)> on_ready = {});

    bool ready() const { return nat_.configured(); }
    net::Ipv4Addr lan_addr() const { return config_.lan_addr; }
    net::Ipv4Addr wan_addr() const { return nat_.wan_addr(); }
    const DeviceProfile& profile() const { return config_.profile; }

    /// Inject a scripted fault right now. Repeated stalls extend the
    /// outage window rather than shortening it.
    void inject_fault(const GatewayFault& fault);
    bool stalled() const { return loop_.now() < stalled_until_; }
    std::uint64_t faults_injected() const { return faults_injected_; }

    /// Wire the whole device into an observability session under `device`
    /// (typically the profile's model name + slot index): NAT engine and
    /// binding tables, forwarding path, DNS proxy, and the gateway's own
    /// host stack. Fault injection becomes a flight-recorder trigger.
    void bind_observability(obs::MetricsRegistry* reg, obs::Tracer* tracer,
                            const std::string& device);

    stack::Host& host() { return forwarder_.host(); }
    NatEngine& nat() { return nat_; }
    FwdPath& fwd() { return fwd_; }
    DnsProxy& dns_proxy() { return dns_proxy_; }

    /// Netfilter-style FORWARD chain applied to NAT'd traffic in both
    /// directions (keys are always the internal/LAN view of the flow:
    /// pre-SNAT going up, post-DNAT coming down). Hairpin and the plain
    /// router fallback bypass it. An empty chain with an ACCEPT default
    /// costs nothing and bumps no counters.
    RuleChain& filter() { return filter_; }

private:
    // The policy Forwarder's frame hooks call (see forwarder.hpp).
    friend class Forwarder;
    NatEngine& translator() { return nat_; }
    /// The FORWARD chain; an unconfigured empty-accept chain costs
    /// nothing and counts nothing.
    bool admit(const net::PacketView& v);
    /// Queue on FwdPath (Up toward the WAN, Down into the LAN, hairpin
    /// included), then emit.
    void forward(sim::Frame frame, net::Ipv4Addr dst, Port out);

    sim::EventLoop& loop_;
    Config config_;
    Forwarder forwarder_;
    NatEngine nat_;
    FwdPath fwd_;
    RuleChain filter_;
    DnsProxy dns_proxy_;
    sim::TimePoint stalled_until_{0};
    std::uint64_t faults_injected_ = 0;

    // Instrumentation; nullptr/empty until bind_observability.
    obs::Counter* m_faults_ = nullptr;
    obs::Tracer* tracer_ = nullptr;
    std::string obs_device_;
};

} // namespace gatekit::gateway
