// Network interfaces: a physical port (NetIf) carrying one untagged and/or
// several 802.1Q-tagged subinterfaces (Iface), each with its own IPv4
// configuration and ARP state. The test client in the paper's Figure 1 has
// one physical NIC with a vlan-if per home gateway; gateways have two
// physical ports with one untagged interface each. Both are built from
// these two classes.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/addr.hpp"
#include "net/arp.hpp"
#include "net/ethernet.hpp"
#include "net/packet_pool.hpp"
#include "net/packet_view.hpp"
#include "sim/link.hpp"

namespace gatekit::stack {

class NetIf;

/// ARP resolution cache: a flat table sorted by address. An interface
/// has a handful of neighbours and looks one up per frame it sends, so a
/// binary search over contiguous entries beats a tree walk.
class ArpCache {
public:
    std::optional<net::MacAddr> lookup(net::Ipv4Addr ip) const;
    void insert(net::Ipv4Addr ip, net::MacAddr mac);
    std::size_t size() const { return entries_.size(); }

private:
    std::vector<std::pair<net::Ipv4Addr, net::MacAddr>> entries_;
};

/// An L3 (sub)interface. Owns addressing, ARP, and Ethernet framing
/// (Host writes the IPv4 datagram); delivers received IP datagrams upward
/// via a callback.
class Iface {
public:
    Iface(NetIf& parent, std::optional<std::uint16_t> vlan);

    Iface(const Iface&) = delete;
    Iface& operator=(const Iface&) = delete;

    /// Assign the IPv4 configuration (e.g. from DHCP).
    void configure(net::Ipv4Addr addr, int prefix_len);
    void deconfigure();

    bool configured() const { return configured_; }
    net::Ipv4Addr addr() const { return addr_; }
    int prefix_len() const { return prefix_len_; }

    /// Per-interface default gateway (for interface-bound sockets that
    /// must not consult the host routing table, a la SO_BINDTODEVICE).
    void set_gateway(net::Ipv4Addr gw) { gateway_ = gw; }
    net::Ipv4Addr gateway() const { return gateway_; }
    net::MacAddr mac() const;
    std::optional<std::uint16_t> vlan() const { return vlan_; }

    /// Handler for IPv4 datagrams arriving on this iface: a view over
    /// the wire buffer plus the frame's whole payload (link padding
    /// included), which probes and NAT bug-detection need verbatim. Both
    /// die when the handler returns.
    using IpHandler = std::function<void(const net::PacketView&,
                                         std::span<const std::uint8_t>)>;
    void set_ip_handler(IpHandler h) { on_ip_ = std::move(h); }

    /// Send pre-serialized datagram bytes (raw injection for probes).
    void send_ip_raw(net::Bytes datagram, net::Ipv4Addr next_hop);

    /// Ethernet header bytes this iface writes: 18 tagged, 14 untagged.
    std::size_t l2_header_len() const { return vlan_ ? 18 : 14; }
    /// A frame from the NIC's pool sized for a `payload_len`-byte payload,
    /// with this iface's source MAC, tag and `ethertype` written. The
    /// caller writes the payload after l2_header_len() bytes; an IPv4
    /// frame goes to send_frame, which fills in the destination MAC.
    net::Bytes make_frame(std::size_t payload_len, std::uint16_t ethertype);
    /// Transmit a make_frame IPv4 frame toward `next_hop` (or an IP
    /// broadcast), ARP-resolving it; a datagram that must wait for ARP is
    /// copied out of the frame and parked.
    void send_frame(net::Bytes frame, net::Ipv4Addr next_hop);

    ArpCache& arp_cache() { return arp_; }

    /// Called by NetIf with the payload of a frame for this
    /// subinterface; the span aliases the wire buffer.
    void frame_in(std::uint16_t ethertype, std::span<std::uint8_t> payload);

private:
    /// Datagrams parked behind an in-flight ARP resolution, plus the
    /// retransmit budget spent on it. `epoch` ties retry timers to one
    /// resolution cycle: a timer from a finished cycle must not touch a
    /// later resolution of the same next hop.
    struct PendingArp {
        std::deque<net::Bytes> queue;
        int tries = 0;
        std::uint64_t epoch = 0;
    };

    /// make_frame() holding a copy of `payload`.
    net::Bytes frame_with(std::span<const std::uint8_t> payload,
                          std::uint16_t ethertype);
    void put_on_wire(net::Bytes frame, net::MacAddr dst);
    void handle_arp(std::span<const std::uint8_t> payload);
    void send_arp_request(net::Ipv4Addr next_hop);
    void schedule_arp_retry(net::Ipv4Addr next_hop, std::uint64_t epoch);

    NetIf& parent_;
    std::optional<std::uint16_t> vlan_;
    net::Ipv4Addr addr_;
    net::Ipv4Addr gateway_;
    int prefix_len_ = 0;
    bool configured_ = false;
    ArpCache arp_;
    std::map<net::Ipv4Addr, PendingArp> awaiting_arp_;
    std::uint64_t arp_epoch_ = 0;
    IpHandler on_ip_;
};

/// A physical Ethernet port: owns the MAC address, attaches to a Link, and
/// demuxes frames to subinterfaces by VLAN tag.
class NetIf : public sim::FrameSink {
public:
    NetIf(sim::EventLoop& loop, net::MacAddr mac);

    /// Attach this port to one side of a link.
    void connect(sim::Link& link, sim::Link::Side side);

    /// Create a subinterface. `vlan == nullopt` receives untagged frames.
    /// At most one subinterface per tag. Returned reference is stable.
    Iface& add_iface(std::optional<std::uint16_t> vlan = std::nullopt);

    Iface* find_iface(std::optional<std::uint16_t> vlan);

    net::MacAddr mac() const { return mac_; }
    sim::EventLoop& loop() { return loop_; }

    /// Transmit frame bytes verbatim: every make_frame frame, IPv4 or ARP.
    void send_raw_frame(sim::Frame frame);

    /// Datapath intercept, tried before the subinterface demux on every
    /// untagged IPv4 frame the port accepts: addressed to its MAC, or
    /// broadcast. The hook receives a parsed view aliasing `frame` and
    /// may rewrite it in place and take ownership (return true =
    /// consumed); returning false falls through to the demux with the
    /// frame untouched. gateway::Forwarder installs it on both ports of
    /// HomeGateway and CgnGateway, where it is the whole forwarding path;
    /// plain hosts have none.
    using FastIpHook = std::function<bool(net::PacketView&, sim::Frame&)>;
    void set_fast_ip_hook(FastIpHook hook) { fast_hook_ = std::move(hook); }

    void frame_in(sim::Frame frame) override;

    /// Per-port packet arena: transmit paths draw serialization buffers
    /// here and the receive path recycles consumed frames back into it.
    net::PacketPool& pool() { return pool_; }

private:
    sim::EventLoop& loop_;
    net::MacAddr mac_;
    sim::LinkEnd out_;
    std::vector<std::unique_ptr<Iface>> ifaces_;
    net::PacketPool pool_;
    FastIpHook fast_hook_;
};

} // namespace gatekit::stack
