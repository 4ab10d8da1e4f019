#include "stack/netif.hpp"

#include <algorithm>
#include <chrono>

#include "util/assert.hpp"

namespace gatekit::stack {

namespace {

/// First entry whose address is not below `ip`.
template <typename Entries>
auto arp_lower_bound(Entries& entries, net::Ipv4Addr ip) {
    return std::lower_bound(
        entries.begin(), entries.end(), ip,
        [](const auto& e, net::Ipv4Addr key) { return e.first < key; });
}

} // namespace

std::optional<net::MacAddr> ArpCache::lookup(net::Ipv4Addr ip) const {
    const auto it = arp_lower_bound(entries_, ip);
    if (it == entries_.end() || it->first != ip) return std::nullopt;
    return it->second;
}

void ArpCache::insert(net::Ipv4Addr ip, net::MacAddr mac) {
    const auto it = arp_lower_bound(entries_, ip);
    if (it != entries_.end() && it->first == ip)
        it->second = mac;
    else
        entries_.insert(it, {ip, mac});
}

Iface::Iface(NetIf& parent, std::optional<std::uint16_t> vlan)
    : parent_(parent), vlan_(vlan) {}

void Iface::configure(net::Ipv4Addr addr, int prefix_len) {
    GK_EXPECTS(prefix_len >= 0 && prefix_len <= 32);
    addr_ = addr;
    prefix_len_ = prefix_len;
    configured_ = true;
}

void Iface::deconfigure() {
    configured_ = false;
    addr_ = net::Ipv4Addr{};
    prefix_len_ = 0;
}

net::MacAddr Iface::mac() const { return parent_.mac(); }

void Iface::send_ip_raw(net::Bytes datagram, net::Ipv4Addr next_hop) {
    send_frame(frame_with(datagram, net::kEtherTypeIpv4), next_hop);
}

net::Bytes Iface::frame_with(std::span<const std::uint8_t> payload,
                             std::uint16_t ethertype) {
    net::Bytes frame = make_frame(payload.size(), ethertype);
    std::copy(payload.begin(), payload.end(),
              frame.begin() + static_cast<long>(l2_header_len()));
    return frame;
}

net::Bytes Iface::make_frame(std::size_t payload_len,
                             std::uint16_t ethertype) {
    net::Bytes frame = parent_.pool().acquire();
    frame.resize(l2_header_len() + payload_len);
    std::uint8_t* p = frame.data();
    const net::MacAddr src = mac();
    std::copy(src.octets().begin(), src.octets().end(), p + 6);
    if (vlan_) {
        GK_EXPECTS(*vlan_ < 4096);
        net::store_u16(p + 12, net::kEtherTypeVlan);
        net::store_u16(p + 14, *vlan_); // PCP/DEI zero
    }
    net::store_u16(p + l2_header_len() - 2, ethertype);
    return frame;
}

void Iface::send_frame(net::Bytes frame, net::Ipv4Addr next_hop) {
    if (next_hop.is_broadcast()) {
        put_on_wire(std::move(frame), net::MacAddr::broadcast());
        return;
    }
    // Never ARP for an address outside this interface's subnet: no one
    // on the segment answers for it, so the datagram would sit behind a
    // doomed resolution and blackhole once the retry budget runs out.
    // Substitute the configured gateway — the router on this segment is
    // the L2 next hop for everything off-link. (Callers that already
    // resolved a route pass an on-link `via`, which is unaffected.)
    if (configured_ && !next_hop.same_subnet(addr_, prefix_len_)) {
        if (gateway_.is_unspecified()) { // off-link, no router
            parent_.pool().release(std::move(frame));
            return;
        }
        next_hop = gateway_;
    }
    if (auto mac = arp_.lookup(next_hop)) {
        put_on_wire(std::move(frame), *mac);
        return;
    }
    // Queue behind an ARP request. Only the first packet triggers one; the
    // reply flushes the whole queue. Requests retransmit on a timer: an
    // impaired link can lose the request or the reply, and without retry
    // one lost ARP frame would blackhole the next hop forever.
    net::Bytes datagram(frame.begin() + static_cast<long>(l2_header_len()),
                        frame.end());
    parent_.pool().release(std::move(frame));
    if (auto it = awaiting_arp_.find(next_hop); it != awaiting_arp_.end()) {
        it->second.queue.push_back(std::move(datagram));
        return;
    }
    PendingArp& pending = awaiting_arp_[next_hop];
    pending.queue.push_back(std::move(datagram));
    pending.epoch = ++arp_epoch_;
    send_arp_request(next_hop);
    schedule_arp_retry(next_hop, pending.epoch);
}

void Iface::send_arp_request(net::Ipv4Addr next_hop) {
    net::ArpMessage req;
    req.op = net::ArpMessage::Op::Request;
    req.sender_mac = mac();
    req.sender_ip = addr_;
    req.target_ip = next_hop;
    put_on_wire(frame_with(req.serialize(), net::kEtherTypeArp),
                net::MacAddr::broadcast());
}

void Iface::schedule_arp_retry(net::Ipv4Addr next_hop, std::uint64_t epoch) {
    constexpr auto kRetryInterval = std::chrono::seconds(1);
    constexpr int kMaxTries = 5; // initial request + 4 retransmits
    auto& loop = parent_.loop();
    loop.at(loop.now() + kRetryInterval, [this, next_hop, epoch] {
        auto it = awaiting_arp_.find(next_hop);
        if (it == awaiting_arp_.end() || it->second.epoch != epoch)
            return; // resolved, or a newer resolution cycle owns the hop
        if (++it->second.tries >= kMaxTries) {
            // Give up and unpark: drop the queued datagrams, as a real
            // stack reports EHOSTUNREACH. A later send restarts the cycle.
            awaiting_arp_.erase(it);
            return;
        }
        send_arp_request(next_hop);
        schedule_arp_retry(next_hop, epoch);
    });
}

void Iface::put_on_wire(net::Bytes frame, net::MacAddr dst) {
    std::copy(dst.octets().begin(), dst.octets().end(), frame.begin());
    parent_.send_raw_frame(std::move(frame));
}

void Iface::frame_in(std::uint16_t ethertype,
                     std::span<std::uint8_t> payload) {
    if (ethertype == net::kEtherTypeArp) {
        handle_arp(payload);
        return;
    }
    if (ethertype != net::kEtherTypeIpv4) return;
    const auto view = net::PacketView::parse(payload);
    if (!view) return; // malformed input is dropped, as a real stack would
    if (on_ip_) on_ip_(*view, payload);
}

void Iface::handle_arp(std::span<const std::uint8_t> payload) {
    net::ArpMessage msg;
    try {
        msg = net::ArpMessage::parse(payload);
    } catch (const net::ParseError&) {
        return;
    }
    // Learn the sender either way.
    if (!msg.sender_ip.is_unspecified())
        arp_.insert(msg.sender_ip, msg.sender_mac);

    if (msg.op == net::ArpMessage::Op::Request && configured_ &&
        msg.target_ip == addr_) {
        net::ArpMessage reply;
        reply.op = net::ArpMessage::Op::Reply;
        reply.sender_mac = mac();
        reply.sender_ip = addr_;
        reply.target_mac = msg.sender_mac;
        reply.target_ip = msg.sender_ip;
        put_on_wire(frame_with(reply.serialize(), net::kEtherTypeArp),
                    msg.sender_mac);
    }

    // Flush datagrams that were waiting on this resolution.
    auto it = awaiting_arp_.find(msg.sender_ip);
    if (it != awaiting_arp_.end()) {
        auto queued = std::move(it->second.queue);
        awaiting_arp_.erase(it);
        for (const auto& dgram : queued)
            put_on_wire(frame_with(dgram, net::kEtherTypeIpv4),
                        msg.sender_mac);
    }
}

NetIf::NetIf(sim::EventLoop& loop, net::MacAddr mac)
    : loop_(loop), mac_(mac) {}

void NetIf::connect(sim::Link& link, sim::Link::Side side) {
    out_ = sim::LinkEnd(link, side);
    link.attach(side, *this);
}

Iface& NetIf::add_iface(std::optional<std::uint16_t> vlan) {
    GK_EXPECTS(find_iface(vlan) == nullptr);
    ifaces_.push_back(std::make_unique<Iface>(*this, vlan));
    return *ifaces_.back();
}

Iface* NetIf::find_iface(std::optional<std::uint16_t> vlan) {
    for (auto& iface : ifaces_)
        if (iface->vlan() == vlan) return iface.get();
    return nullptr;
}

void NetIf::send_raw_frame(sim::Frame frame) {
    GK_EXPECTS(out_.connected());
    out_.send(std::move(frame));
}

void NetIf::frame_in(sim::Frame raw) {
    const auto hdr = net::EthernetHeader::read(raw);
    if (!hdr) {
        pool_.release(std::move(raw));
        return;
    }
    const bool accepted = hdr->dst == mac_ || hdr->dst.is_broadcast();
    // Datapath intercept: untagged IPv4 the port accepts goes to the hook
    // first; anything it declines falls through to the subinterface
    // demux below with the frame untouched.
    if (fast_hook_ && !hdr->vlan_id && accepted &&
        hdr->ethertype == net::kEtherTypeIpv4 && raw.size() >= 34) {
        auto view = net::PacketView::parse(
            std::span<std::uint8_t>(raw.data() + 14, raw.size() - 14));
        if (view && fast_hook_(*view, raw)) return; // consumed (or recycled)
    }
    if (accepted) {
        if (Iface* iface = find_iface(hdr->vlan_id))
            iface->frame_in(hdr->ethertype,
                            std::span<std::uint8_t>(raw.data() + hdr->size,
                                                    raw.size() - hdr->size));
    }
    // Every view and span handed up died with the handlers; park the
    // buffer's capacity for the next transmit on this port.
    pool_.release(std::move(raw));
}

} // namespace gatekit::stack
