#include "stun/stun_service.hpp"

#include <memory>

#include "stack/host.hpp"
#include "stack/udp_socket.hpp"
#include "util/assert.hpp"

namespace gatekit::stun {

const char* to_string(Mapping m) {
    switch (m) {
    case Mapping::NoNat:
        return "no NAT";
    case Mapping::EndpointIndependent:
        return "endpoint-independent";
    case Mapping::AddressDependent:
        return "address-dependent";
    case Mapping::Blocked:
        return "blocked";
    }
    return "?";
}

StunServer::StunServer(stack::Host& host, std::uint16_t port) : host_(host) {
    sock_ = &host_.udp_open(net::Ipv4Addr::any(), port);
    sock_->set_receive_handler([this](net::Endpoint src,
                                      std::span<const std::uint8_t> payload,
                                      const net::PacketView&) {
        Message request;
        try {
            request = Message::parse(payload);
        } catch (const net::ParseError&) {
            return;
        }
        if (request.type != MessageType::BindingRequest) return;
        Message response;
        response.type = MessageType::BindingResponse;
        response.transaction = request.transaction;
        response.xor_mapped = src;
        sock_->send_to(src, response.serialize());
        ++served_;
    });
}

StunServer::~StunServer() {
    if (sock_ != nullptr) host_.udp_close(*sock_);
}

namespace {

/// State for one query with retransmissions.
struct Pending {
    stack::Host& host;
    stack::UdpSocket& sock;
    StunClient::Handler handler;
    TransactionId txn;
    sim::EventId timer;
    bool done = false;
    int tries_left;
};

} // namespace

void StunClient::query(net::Ipv4Addr local_addr, net::Endpoint server,
                       Handler h, int retries, sim::Duration timeout) {
    auto& sock = host_.udp_open(local_addr, 0);
    const auto txn = TransactionId::from_seed(next_txn_++);
    auto st = std::make_shared<Pending>(
        Pending{host_, sock, std::move(h), txn, {}, false, retries});
    const auto local_port = sock.local().port;

    auto finish = [st, local_port](StunResult r) {
        if (st->done) return;
        st->done = true;
        if (st->timer) st->host.loop().cancel(st->timer);
        st->host.udp_close(st->sock);
        if (r.ok) r.port_preserved = r.reflexive.port == local_port;
        st->handler(r);
    };

    sock.set_receive_handler([finish, txn](net::Endpoint,
                                           std::span<const std::uint8_t> pl,
                                           const net::PacketView&) {
        Message resp;
        try {
            resp = Message::parse(pl);
        } catch (const net::ParseError&) {
            return;
        }
        if (resp.transaction != txn) return;
        if (resp.type != MessageType::BindingResponse || !resp.xor_mapped) {
            finish(StunResult{false, {}, {}, Mapping::Blocked, false,
                              "error response"});
            return;
        }
        StunResult r;
        r.ok = true;
        r.reflexive = *resp.xor_mapped;
        finish(r);
    });

    Message request;
    request.type = MessageType::BindingRequest;
    request.transaction = txn;
    const auto wire = request.serialize();

    // The pending retransmit timer owns the round; the round refers to
    // itself weakly, or the two would keep each other alive for good.
    auto send_round = std::make_shared<std::function<void()>>();
    *send_round = [st, finish, server, wire, timeout,
                   self = std::weak_ptr(send_round)] {
        if (st->done) return;
        st->sock.send_to(server, wire);
        st->timer = st->host.loop().after(timeout, [st, finish,
                                                    round = self.lock()] {
            if (st->done) return;
            if (st->tries_left-- > 0) {
                (*round)();
            } else {
                finish(StunResult{false, {}, {}, Mapping::Blocked, false,
                                  "timeout"});
            }
        });
    };
    (*send_round)();
}

void StunClient::discover(net::Ipv4Addr local_addr, net::Endpoint server_a,
                          net::Endpoint server_b, Handler h) {
    // Mapping discovery must reuse ONE local socket toward two servers;
    // run both queries over a single shared socket.
    auto& sock = host_.udp_open(local_addr, 0);
    const auto local_port = sock.local().port;
    struct Discovery {
        stack::Host& host;
        stack::UdpSocket& sock;
        StunClient::Handler handler;
        TransactionId txn_a, txn_b;
        std::optional<net::Endpoint> refl_a, refl_b;
        sim::EventId deadline;
        bool done = false;
    };
    auto st = std::make_shared<Discovery>(Discovery{
        host_, sock, std::move(h), TransactionId::from_seed(next_txn_++),
        TransactionId::from_seed(next_txn_++), {}, {}, {}, false});

    auto finish = [st, local_addr, local_port] {
        if (st->done) return;
        st->done = true;
        if (st->deadline) st->host.loop().cancel(st->deadline);
        st->host.udp_close(st->sock);
        StunResult r;
        if (!st->refl_a && !st->refl_b) {
            r.mapping = Mapping::Blocked;
            r.error = "no responses";
        } else if (st->refl_a && st->refl_b) {
            r.ok = true;
            r.reflexive = *st->refl_a;
            r.reflexive_alt = *st->refl_b;
            if (st->refl_a->addr == local_addr)
                r.mapping = Mapping::NoNat;
            else if (*st->refl_a == *st->refl_b)
                r.mapping = Mapping::EndpointIndependent;
            else
                r.mapping = Mapping::AddressDependent;
            r.port_preserved = st->refl_a->port == local_port;
        } else {
            // One server unreachable: report what we have.
            r.ok = true;
            r.reflexive = st->refl_a ? *st->refl_a : *st->refl_b;
            r.mapping = Mapping::EndpointIndependent;
            r.error = "partial (one server unreachable)";
            r.port_preserved = r.reflexive.port == local_port;
        }
        st->handler(r);
    };

    sock.set_receive_handler([st, finish](net::Endpoint,
                                          std::span<const std::uint8_t> pl,
                                          const net::PacketView&) {
        Message resp;
        try {
            resp = Message::parse(pl);
        } catch (const net::ParseError&) {
            return;
        }
        if (!resp.xor_mapped) return;
        if (resp.transaction == st->txn_a) st->refl_a = *resp.xor_mapped;
        if (resp.transaction == st->txn_b) st->refl_b = *resp.xor_mapped;
        if (st->refl_a && st->refl_b) finish();
    });

    for (auto [txn, server] :
         {std::pair{st->txn_a, server_a}, std::pair{st->txn_b, server_b}}) {
        Message request;
        request.type = MessageType::BindingRequest;
        request.transaction = txn;
        sock.send_to(server, request.serialize());
    }
    st->deadline =
        host_.loop().after(std::chrono::seconds(2), [finish] { finish(); });
}

} // namespace gatekit::stun
