#include "stack/udp_socket.hpp"

#include "net/udp.hpp"
#include "stack/host.hpp"

namespace gatekit::stack {

bool UdpSocket::send_to(net::Endpoint dst, net::Bytes payload,
                        const SendOptions& opts) {
    net::UdpDatagram dgram;
    dgram.src_port = local_port_;
    dgram.dst_port = dst.port;
    dgram.payload = std::move(payload);

    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.dst = dst.addr;
    pkt.h.ttl = opts.ttl;
    pkt.h.options = opts.ip_options;

    if (dst.addr.is_broadcast()) {
        // Broadcast needs a bound interface; source may be unconfigured
        // (0.0.0.0), as in DHCP DISCOVER.
        if (iface_ == nullptr) return false;
        pkt.h.src = iface_->configured() ? iface_->addr() : net::Ipv4Addr{};
        pkt.payload = dgram.serialize(pkt.h.src, pkt.h.dst);
        iface_->send_ip(pkt, net::Ipv4Addr::broadcast());
        return true;
    }

    // Interface-bound unicast (SO_BINDTODEVICE semantics): route via the
    // bound interface only — on-link directly, everything else through
    // that interface's gateway. Hole-punching peers rely on this: their
    // traffic must traverse their own NAT, not the host routing table.
    if (iface_ != nullptr && iface_->configured()) {
        pkt.h.src = iface_->addr();
        pkt.payload = dgram.serialize(pkt.h.src, pkt.h.dst);
        const bool on_link =
            dst.addr.same_subnet(iface_->addr(), iface_->prefix_len());
        const auto next_hop = on_link ? dst.addr : iface_->gateway();
        if (next_hop.is_unspecified()) return false;
        iface_->send_ip(pkt, next_hop);
        return true;
    }

    pkt.h.src = local_addr_;
    if (pkt.h.src.is_unspecified()) {
        const Route* route = host_.lookup_route(dst.addr);
        if (route == nullptr || !route->iface->configured()) return false;
        pkt.h.src = route->iface->addr();
    }
    pkt.payload = dgram.serialize(pkt.h.src, pkt.h.dst);
    return host_.send_ip(std::move(pkt));
}

void UdpSocket::deliver(net::Endpoint src,
                        std::span<const std::uint8_t> payload,
                        const net::PacketView& view) {
    ++rx_count_;
    if (on_receive_) on_receive_(src, payload, view);
}

} // namespace gatekit::stack
