#include "stun/turn.hpp"

#include "stack/host.hpp"
#include "stack/udp_socket.hpp"
#include "util/assert.hpp"

namespace gatekit::stun {

TurnServer::TurnServer(stack::Host& host, net::Ipv4Addr relay_addr,
                       std::uint16_t port)
    : host_(host), relay_addr_(relay_addr) {
    control_ = &host_.udp_open(net::Ipv4Addr::any(), port);
    control_->set_receive_handler(
        [this](net::Endpoint src, std::span<const std::uint8_t> payload,
               const net::PacketView&) { on_control(src, payload); });
}

TurnServer::~TurnServer() {
    for (auto& [client, alloc] : allocations_)
        if (alloc->relay != nullptr) host_.udp_close(*alloc->relay);
    if (control_ != nullptr) host_.udp_close(*control_);
}

void TurnServer::on_control(net::Endpoint src,
                            std::span<const std::uint8_t> data) {
    Message msg;
    try {
        msg = Message::parse(data);
    } catch (const net::ParseError&) {
        return;
    }
    switch (msg.type) {
    case MessageType::AllocateRequest:
        handle_allocate(src, msg);
        break;
    case MessageType::SendIndication:
        handle_send(src, msg);
        break;
    default:
        break;
    }
}

void TurnServer::handle_allocate(net::Endpoint src, const Message& request) {
    auto it = allocations_.find(src);
    if (it == allocations_.end()) {
        auto alloc = std::make_unique<Allocation>();
        alloc->client = src;
        alloc->relay = &host_.udp_open(relay_addr_, 0);
        // Peer traffic arriving at the relay is wrapped in a Data
        // indication toward the allocating client.
        Allocation* raw = alloc.get();
        alloc->relay->set_receive_handler(
            [this, raw](net::Endpoint peer,
                        std::span<const std::uint8_t> payload,
                        const net::PacketView&) {
                Message ind;
                ind.type = MessageType::DataIndication;
                ind.xor_peer = peer;
                ind.data = net::Bytes(payload.begin(), payload.end());
                control_->send_to(raw->client, ind.serialize());
                ++relayed_;
            });
        it = allocations_.emplace(src, std::move(alloc)).first;
    }
    Message response;
    response.type = MessageType::AllocateResponse;
    response.transaction = request.transaction;
    response.xor_relayed = it->second->relay->local();
    response.xor_mapped = src;
    control_->send_to(src, response.serialize());
}

void TurnServer::handle_send(net::Endpoint src, const Message& indication) {
    if (!indication.xor_peer || !indication.data) return;
    auto it = allocations_.find(src);
    if (it == allocations_.end()) return;
    it->second->relay->send_to(*indication.xor_peer, *indication.data);
    ++relayed_;
}

TurnClient::TurnClient(stack::Host& host, net::Ipv4Addr local_addr,
                       net::Endpoint server, stack::Iface* iface)
    : host_(host), server_(server) {
    sock_ = &host_.udp_open(local_addr, 0, iface);
    sock_->set_receive_handler([this](net::Endpoint,
                                      std::span<const std::uint8_t> payload,
                                      const net::PacketView&) {
        Message msg;
        try {
            msg = Message::parse(payload);
        } catch (const net::ParseError&) {
            return;
        }
        if (msg.type == MessageType::AllocateResponse &&
            msg.transaction == txn_ && msg.xor_relayed) {
            if (allocated_) return; // duplicate response
            allocated_ = true;
            relayed_ = *msg.xor_relayed;
            if (retry_) host_.loop().cancel(retry_);
            if (on_allocated_) on_allocated_(true, relayed_);
            return;
        }
        if (msg.type == MessageType::DataIndication && msg.xor_peer &&
            msg.data && on_data_) {
            on_data_(*msg.xor_peer, *msg.data);
        }
    });
}

TurnClient::~TurnClient() {
    if (retry_) host_.loop().cancel(retry_);
    if (sock_ != nullptr) host_.udp_close(*sock_);
}

void TurnClient::allocate(AllocatedHandler h) {
    GK_EXPECTS(!allocated_);
    on_allocated_ = std::move(h);
    txn_ = TransactionId::from_seed(
        0x7451000000ULL + sock_->local().port);
    Message request;
    request.type = MessageType::AllocateRequest;
    request.transaction = txn_;
    const auto wire = request.serialize();

    // Simple retransmission schedule.
    std::function<void()> round = [this, wire]() {
        sock_->send_to(server_, wire);
        retry_ = host_.loop().after(std::chrono::milliseconds(500), [this,
                                                                     wire] {
            if (allocated_) return;
            if (--tries_left_ > 0) {
                sock_->send_to(server_, wire);
                // Re-arm by resending the same lambda chain.
                retry_ = host_.loop().after(std::chrono::milliseconds(500),
                                            [this] {
                                                if (!allocated_ &&
                                                    on_allocated_)
                                                    on_allocated_(false, {});
                                            });
            } else if (on_allocated_) {
                on_allocated_(false, {});
            }
        });
    };
    round();
}

bool TurnClient::send(net::Endpoint peer, net::Bytes payload) {
    if (!allocated_) return false;
    Message ind;
    ind.type = MessageType::SendIndication;
    ind.xor_peer = peer;
    ind.data = std::move(payload);
    return sock_->send_to(server_, ind.serialize());
}

} // namespace gatekit::stun
