// Event-driven UDP socket bound to a Host, which picks each send's egress
// (Host::send_datagram). ICMP errors about its
// datagrams are not delivered here; read them with Host::set_icmp_observer.
#pragma once

#include <functional>
#include <optional>

#include "net/addr.hpp"
#include "net/buffer.hpp"
#include "net/packet_view.hpp"

namespace gatekit::stack {

class Host;
class Iface;

class UdpSocket {
public:
    /// (source endpoint, payload, the datagram as received). The view
    /// aliases the received frame and is valid only during the call.
    using ReceiveHandler = std::function<void(
        net::Endpoint, std::span<const std::uint8_t>, const net::PacketView&)>;

    net::Endpoint local() const { return {local_addr_, local_port_}; }

    void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }

    /// Send a datagram; false when it cannot leave. The payload is
    /// copied straight into the frame, so it may alias anything; a braced
    /// byte list takes double braces, `send_to(dst, {{'A'}})`. Options
    /// customize probe traffic: `ttl` overrides the default 64;
    /// `ip_options` adds raw IPv4 options (e.g. Record Route).
    struct SendOptions {
        std::uint8_t ttl = 64;
        net::Bytes ip_options;
    };
    bool send_to(net::Endpoint dst, std::span<const std::uint8_t> payload,
                 const SendOptions& opts);
    bool send_to(net::Endpoint dst, std::span<const std::uint8_t> payload) {
        return send_to(dst, payload, SendOptions{});
    }

    std::uint64_t datagrams_received() const { return rx_count_; }

private:
    friend class Host;
    UdpSocket(Host& host, net::Ipv4Addr local_addr, std::uint16_t local_port,
              Iface* iface)
        : host_(host), local_addr_(local_addr), local_port_(local_port),
          iface_(iface) {}

    void deliver(net::Endpoint src, std::span<const std::uint8_t> payload,
                 const net::PacketView& view);

    Host& host_;
    net::Ipv4Addr local_addr_;
    bool closed_ = false; ///< close requested; destruction is deferred
    std::uint16_t local_port_;
    Iface* iface_; ///< bound interface (broadcast sends); may be null
    ReceiveHandler on_receive_;
    std::uint64_t rx_count_ = 0;
};

} // namespace gatekit::stack
