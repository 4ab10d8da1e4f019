// HomeGateway: a complete simulated CPE device. Internally it is a Host
// (giving it ARP, DHCP client/server, a DNS proxy and its own sockets)
// plus a NAT datapath on its two NICs' frame hooks, in front of the host
// stack, and a forwarding-performance model. Behavior is entirely driven
// by its DeviceProfile; src/devices instantiates the paper's 34 models.
#pragma once

#include <functional>
#include <memory>

#include "gateway/dns_proxy.hpp"
#include "gateway/fwd_path.hpp"
#include "gateway/nat_engine.hpp"
#include "gateway/profile.hpp"
#include "gateway/rule_chain.hpp"
#include "stack/dhcp_service.hpp"
#include "stack/host.hpp"

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

    void connect_lan(sim::Link& link, sim::Link::Side side);
    void connect_wan(sim::Link& link, sim::Link::Side side);

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

    stack::Host& host() { return host_; }
    /// The gateway's interfaces. Exposed so the campaign supervisor can
    /// restore their ARP caches on journal resume (entries never expire,
    /// so warm state is part of replayed history).
    stack::Iface& lan_if() { return lan_if_; }
    stack::Iface& wan_if() { return wan_if_; }
    NatEngine& nat() { return nat_; }
    FwdPath& fwd() { return fwd_; }
    DnsProxy& dns_proxy() { return dns_proxy_; }
    stack::DhcpServer* lan_dhcp() { return lan_dhcp_.get(); }

    /// Netfilter-style FORWARD chain applied to NAT'd traffic in both
    /// directions (keys are always the internal/LAN view of the flow:
    /// pre-SNAT going up, post-DNAT coming down). Hairpin and the plain
    /// router fallback bypass it. An empty chain with an ACCEPT default
    /// costs nothing and bumps no counters.
    RuleChain& filter() { return filter_; }

private:
    /// NIC frame hooks, the gateway's whole datapath: every protocol in
    /// untagged IPv4 frames to a port's MAC or broadcast is translated,
    /// hairpinned or (WAN side, to a LAN host) routed by the
    /// Untranslated fallback in place, and forwarded in the same buffer;
    /// an expiring TTL draws its Time Exceeded here, and a stall
    /// swallows everything. They decline only the gateway's own traffic
    /// (IP broadcast, its own addresses, what hairpin refuses, and
    /// kNotOurs), which the host stack delivers locally.
    bool frame_from_lan(net::PacketView& v, sim::Frame& frame);
    bool frame_from_wan(net::PacketView& v, sim::Frame& frame);
    /// Send a forwarded frame toward `dst` with `out`'s source MAC; the
    /// frame is dropped unless `dst`'s route leaves by `out`.
    void emit_frame(sim::Frame frame, net::Ipv4Addr dst, stack::Iface& out);
    bool filter_pass(const RuleChain::Key& key);

    /// Emit ICMP Time Exceeded toward `datagram`'s source (RFC 792),
    /// quoting it as it arrived: this hop would have decremented the TTL
    /// to zero. Both datapath directions land here, so cascaded (NAT444)
    /// chains report the expiring hop instead of silently eating
    /// traceroute probes.
    void ttl_expired(std::span<const std::uint8_t> datagram);

    sim::EventLoop& loop_;
    Config config_;
    stack::Host host_;
    stack::NetIf& wan_nic_;
    stack::Iface& lan_if_;
    stack::Iface& wan_if_;
    NatEngine nat_;
    FwdPath fwd_;
    RuleChain filter_;
    bool filter_compiled_ = false; ///< profile.firewall_compiled
    DnsProxy dns_proxy_;
    std::unique_ptr<stack::DhcpClient> wan_dhcp_;
    std::unique_ptr<stack::DhcpServer> lan_dhcp_;
    std::function<void(net::Ipv4Addr)> on_ready_;
    sim::TimePoint stalled_until_{0};
    std::uint64_t faults_injected_ = 0;

    // Instrumentation; nullptr/empty until bind_observability.
    obs::Counter* m_faults_ = nullptr;
    obs::Tracer* tracer_ = nullptr;
    std::string obs_device_;
};

} // namespace gatekit::gateway
