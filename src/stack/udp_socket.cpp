#include "stack/udp_socket.hpp"

#include "net/udp.hpp"
#include "stack/host.hpp"

namespace gatekit::stack {

bool UdpSocket::send_to(net::Endpoint dst,
                        std::span<const std::uint8_t> payload,
                        const SendOptions& opts) {
    return host_.send_datagram(
        {.protocol = net::proto::kUdp, .src = local_addr_, .dst = dst.addr,
         .ttl = opts.ttl, .options = opts.ip_options, .bound = iface_},
        8 + payload.size(),
        [&](std::span<std::uint8_t> l4, net::Ipv4Addr src) {
            net::write_udp(l4, local_port_, dst.port, payload, src, dst.addr);
        });
}

void UdpSocket::deliver(net::Endpoint src,
                        std::span<const std::uint8_t> payload,
                        const net::PacketView& view) {
    ++rx_count_;
    if (on_receive_) on_receive_(src, payload, view);
}

} // namespace gatekit::stack
