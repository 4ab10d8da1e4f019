#include "gateway/forwarder.hpp"

#include <algorithm>

#include "net/icmp.hpp"

namespace gatekit::gateway {

Forwarder::Forwarder(sim::EventLoop& loop, Config config)
    : cfg_(std::move(config)), host_(loop, cfg_.name, cfg_.inside_mac),
      wan_nic_(host_.add_nic(cfg_.wan_mac)), inside_if_(host_.add_iface()),
      wan_if_(host_.add_iface_on(wan_nic_)) {
    inside_if_.configure(cfg_.inside_addr, cfg_.inside_prefix_len);
    host_.add_route(cfg_.inside_addr, cfg_.inside_prefix_len, inside_if_);
}

void Forwarder::start(std::function<void(const stack::DhcpLease&)> on_lease) {
    on_lease_ = std::move(on_lease);
    wan_dhcp_ = std::make_unique<stack::DhcpClient>(host_, wan_if_);
    wan_dhcp_->start([this](const stack::DhcpLease& lease) {
        host_.add_route(lease.addr, lease.prefix_len, wan_if_);
        if (!lease.router.is_unspecified()) {
            host_.add_route(net::Ipv4Addr::any(), 0, wan_if_, lease.router);
            // Off-link egress (e.g. toward subnets behind an upstream
            // CGN) resolves the lease's router instead of ARPing for
            // the final destination.
            wan_if_.set_gateway(lease.router);
        }
        // The inside comes up once the uplink works: the box is its
        // inside network's DHCP server and router.
        stack::DhcpServerConfig inside;
        inside.pool_base = cfg_.inside_pool_base;
        inside.prefix_len = cfg_.inside_prefix_len;
        inside.router = cfg_.inside_addr;
        inside.dns_server = cfg_.proxy_dns ? cfg_.inside_addr
                                           : lease.dns_server;
        inside_dhcp_ =
            std::make_unique<stack::DhcpServer>(host_, inside_if_, inside);
        on_lease_(lease);
    });
}

void Forwarder::emit(sim::Frame frame, net::Ipv4Addr dst, Port out) {
    // Route-table-driven: anything whose best route does not leave by
    // `out` is dropped here, which keeps each exit on its own port while
    // allowing routed inside subnets.
    stack::Iface& egress = iface(out);
    const stack::Route* route = host_.lookup_route(dst);
    if (route == nullptr || route->iface != &egress) {
        drop(out, frame);
        return;
    }
    const auto src = egress.mac().octets();
    std::copy(src.begin(), src.end(), frame.begin() + 6);
    egress.send_frame(std::move(frame), route->via ? *route->via : dst);
}

void Forwarder::ttl_expired(std::span<const std::uint8_t> datagram) {
    const net::Ipv4Addr src = net::ipv4_src(datagram);
    if (src.is_unspecified() || src.is_broadcast()) return;
    const auto err = net::IcmpMessage::make_error(
        net::IcmpType::TimeExceeded, net::icmp_code::kTtlExceeded, 0,
        datagram);
    // Routed back toward the source; the egress interface's address
    // becomes the ICMP source (inside address upstream, WAN downstream).
    host_.send_icmp(net::Ipv4Addr::any(), src, err);
}

} // namespace gatekit::gateway
