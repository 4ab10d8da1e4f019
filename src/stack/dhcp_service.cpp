#include "stack/dhcp_service.hpp"

#include "stack/host.hpp"
#include "stack/udp_socket.hpp"
#include "util/assert.hpp"

namespace gatekit::stack {

namespace {
constexpr sim::Duration kClientTimeout = std::chrono::seconds(3);
constexpr int kMaxAttempts = 4;

net::DhcpMessage parse_or_empty(std::span<const std::uint8_t> payload,
                                bool& ok) {
    ok = true;
    try {
        return net::DhcpMessage::parse(payload);
    } catch (const net::ParseError&) {
        ok = false;
        return {};
    }
}

} // namespace

DhcpServer::DhcpServer(Host& host, Iface& iface, DhcpServerConfig config)
    : host_(host), iface_(iface), config_(config) {
    GK_EXPECTS(iface.configured());
    sock_ = &host_.udp_open(net::Ipv4Addr::any(), net::kDhcpServerPort,
                            &iface_);
    sock_->set_receive_handler([this](net::Endpoint,
                                      std::span<const std::uint8_t> payload,
                                      const net::PacketView&) {
        bool ok = false;
        const auto msg = parse_or_empty(payload, ok);
        if (ok && msg.op == 1) on_datagram(msg);
    });
}

DhcpServer::~DhcpServer() {
    if (sock_ != nullptr) host_.udp_close(*sock_);
}

std::optional<net::Ipv4Addr> DhcpServer::lease_for(net::MacAddr mac) const {
    auto it = leases_.find(mac);
    if (it == leases_.end()) return std::nullopt;
    return it->second;
}

net::Ipv4Addr DhcpServer::allocate(net::MacAddr mac) {
    if (auto existing = lease_for(mac)) return *existing;
    GK_ASSERT(next_offset_ < config_.pool_size);
    const net::Ipv4Addr addr{config_.pool_base.value() +
                             static_cast<std::uint32_t>(next_offset_++)};
    leases_[mac] = addr;
    return addr;
}

void DhcpServer::on_datagram(const net::DhcpMessage& msg) {
    const auto type = msg.type();
    if (!type) return;
    switch (*type) {
    case net::DhcpMessageType::Discover:
        reply(msg, net::DhcpMessageType::Offer, allocate(msg.chaddr));
        break;
    case net::DhcpMessageType::Request: {
        // Honor the requested address when it matches our lease.
        const auto requested = msg.addr_option(net::dhcp_opt::kRequestedIp);
        const auto leased = allocate(msg.chaddr);
        if (requested && *requested != leased) {
            reply(msg, net::DhcpMessageType::Nak, net::Ipv4Addr::any());
        } else {
            reply(msg, net::DhcpMessageType::Ack, leased);
        }
        break;
    }
    case net::DhcpMessageType::Release:
        leases_.erase(msg.chaddr);
        break;
    default:
        break;
    }
}

void DhcpServer::reply(const net::DhcpMessage& req, net::DhcpMessageType type,
                       net::Ipv4Addr yiaddr) {
    net::DhcpMessage out;
    out.op = 2;
    out.xid = req.xid;
    out.yiaddr = yiaddr;
    out.siaddr = iface_.addr();
    out.chaddr = req.chaddr;
    out.set_type(type);
    out.set_addr_option(net::dhcp_opt::kServerId, iface_.addr());
    if (type != net::DhcpMessageType::Nak) {
        const std::uint32_t mask =
            config_.prefix_len == 0
                ? 0
                : ~((1u << (32 - config_.prefix_len)) - 1);
        out.set_addr_option(net::dhcp_opt::kSubnetMask, net::Ipv4Addr{mask});
        out.set_addr_option(net::dhcp_opt::kRouter, config_.router);
        out.set_addr_option(net::dhcp_opt::kDnsServer, config_.dns_server);
        out.set_u32_option(net::dhcp_opt::kLeaseTime, config_.lease_seconds);
    }
    // Clients are not yet addressable: broadcast the reply.
    sock_->send_to({net::Ipv4Addr::broadcast(), net::kDhcpClientPort},
                   out.serialize());
}

DhcpClient::DhcpClient(Host& host, Iface& iface)
    : host_(host), iface_(iface) {}

DhcpClient::~DhcpClient() {
    if (timeout_) host_.loop().cancel(timeout_);
    if (sock_ != nullptr) host_.udp_close(*sock_);
}

void DhcpClient::start(ConfiguredHandler on_configured,
                       FailedHandler on_failed) {
    GK_EXPECTS(phase_ == Phase::Idle);
    on_configured_ = std::move(on_configured);
    on_failed_ = std::move(on_failed);
    xid_ = 0x10000000u | (static_cast<std::uint32_t>(
                              iface_.mac().octets()[5]) << 8);
    sock_ = &host_.udp_open(net::Ipv4Addr::any(), net::kDhcpClientPort,
                            &iface_);
    sock_->set_receive_handler([this](net::Endpoint,
                                      std::span<const std::uint8_t> payload,
                                      const net::PacketView&) {
        bool ok = false;
        const auto msg = parse_or_empty(payload, ok);
        if (ok && msg.op == 2 && msg.xid == xid_ &&
            msg.chaddr == iface_.mac())
            on_datagram(msg);
    });
    send_discover();
}

void DhcpClient::send_discover() {
    phase_ = Phase::Selecting;
    net::DhcpMessage msg;
    msg.op = 1;
    msg.xid = xid_;
    msg.chaddr = iface_.mac();
    msg.set_type(net::DhcpMessageType::Discover);
    sock_->send_to({net::Ipv4Addr::broadcast(), net::kDhcpServerPort},
                   msg.serialize());
    arm_timeout();
}

void DhcpClient::arm_timeout() {
    if (timeout_) host_.loop().cancel(timeout_);
    timeout_ = host_.loop().after(kClientTimeout, [this] {
        timeout_ = sim::EventId{};
        if (phase_ == Phase::Bound) return;
        if (++attempts_ >= kMaxAttempts) {
            phase_ = Phase::Idle;
            if (on_failed_) on_failed_();
            return;
        }
        send_discover(); // restart the exchange
    });
}

void DhcpClient::on_datagram(const net::DhcpMessage& msg) {
    const auto type = msg.type();
    if (!type) return;

    if (phase_ == Phase::Selecting &&
        *type == net::DhcpMessageType::Offer) {
        phase_ = Phase::Requesting;
        net::DhcpMessage req;
        req.op = 1;
        req.xid = xid_;
        req.chaddr = iface_.mac();
        req.set_type(net::DhcpMessageType::Request);
        req.set_addr_option(net::dhcp_opt::kRequestedIp, msg.yiaddr);
        if (auto sid = msg.addr_option(net::dhcp_opt::kServerId))
            req.set_addr_option(net::dhcp_opt::kServerId, *sid);
        sock_->send_to({net::Ipv4Addr::broadcast(), net::kDhcpServerPort},
                       req.serialize());
        arm_timeout();
        return;
    }

    if (phase_ == Phase::Requesting && *type == net::DhcpMessageType::Ack) {
        phase_ = Phase::Bound;
        if (timeout_) {
            host_.loop().cancel(timeout_);
            timeout_ = sim::EventId{};
        }
        DhcpLease lease;
        lease.addr = msg.yiaddr;
        if (auto mask = msg.addr_option(net::dhcp_opt::kSubnetMask)) {
            int len = 0;
            for (std::uint32_t v = mask->value(); v & 0x80000000u; v <<= 1)
                ++len;
            lease.prefix_len = len;
        }
        if (auto router = msg.addr_option(net::dhcp_opt::kRouter))
            lease.router = *router;
        if (auto dns = msg.addr_option(net::dhcp_opt::kDnsServer))
            lease.dns_server = *dns;
        if (auto secs = msg.u32_option(net::dhcp_opt::kLeaseTime))
            lease.lease_seconds = *secs;
        lease_ = lease;
        iface_.configure(lease.addr, lease.prefix_len);
        if (on_configured_) on_configured_(lease);
        return;
    }

    if (phase_ == Phase::Requesting && *type == net::DhcpMessageType::Nak)
        send_discover();
}

} // namespace gatekit::stack
