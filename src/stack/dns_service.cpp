#include "stack/dns_service.hpp"

#include "stack/host.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"
#include "util/assert.hpp"

namespace gatekit::stack {

DnsServer::DnsServer(Host& host, net::Ipv4Addr listen_addr, bool with_tcp)
    : host_(host) {
    udp_ = &host_.udp_open(listen_addr, net::kDnsPort);
    udp_->set_receive_handler([this](net::Endpoint src,
                                     std::span<const std::uint8_t> payload,
                                     const net::PacketView&) {
        net::DnsMessage query;
        try {
            query = net::DnsMessage::parse(payload);
        } catch (const net::ParseError&) {
            return;
        }
        if (query.is_response) return;
        ++udp_queries_;
        auto response = answer(query);
        // RFC 6891: without an OPT record the response must fit in 512
        // bytes of UDP; otherwise the client's advertised size governs.
        const std::size_t limit =
            query.edns_udp_size ? *query.edns_udp_size
                                : net::kDnsClassicUdpLimit;
        if (query.edns_udp_size) response.edns_udp_size = 4096;
        auto wire = response.serialize();
        if (wire.size() > limit) {
            response.answers.clear();
            response.truncated = true;
            wire = response.serialize();
        }
        udp_->send_to(src, wire);
    });
    if (with_tcp) {
        tcp_ = &host_.tcp_listen(net::kDnsPort);
        tcp_->set_accept_handler([this](TcpSocket& conn) {
            on_tcp_conn(conn);
        });
    }
}

DnsServer::~DnsServer() {
    if (udp_ != nullptr) host_.udp_close(*udp_);
    if (tcp_ != nullptr) host_.tcp_close_listener(*tcp_);
}

void DnsServer::add_record(std::string name, net::Ipv4Addr addr) {
    records_[std::move(name)] = addr;
}

void DnsServer::add_txt_record(std::string name, std::size_t size) {
    txt_records_[name] = net::DnsMessage::make_txt_filler(name, size);
}

net::DnsMessage DnsServer::answer(const net::DnsMessage& query) const {
    if (query.questions.empty()) {
        net::DnsMessage err;
        err.id = query.id;
        err.is_response = true;
        err.rcode = 1; // FORMERR
        return err;
    }
    if (query.questions.front().qtype == net::kDnsTypeTxt) {
        auto tit = txt_records_.find(query.questions.front().name);
        if (tit != txt_records_.end()) {
            net::DnsMessage m;
            m.id = query.id;
            m.is_response = true;
            m.recursion_available = true;
            m.questions = query.questions;
            m.answers.push_back(tit->second);
            return m;
        }
    }
    auto it = records_.find(query.questions.front().name);
    if (it == records_.end()) {
        net::DnsMessage nx;
        nx.id = query.id;
        nx.is_response = true;
        nx.recursion_available = true;
        nx.questions = query.questions;
        nx.rcode = 3; // NXDOMAIN
        return nx;
    }
    return net::DnsMessage::make_a_response(query, it->second);
}

void DnsServer::on_tcp_conn(TcpSocket& conn) {
    // Per-connection framer keyed by socket identity; cleaned up on close.
    tcp_rx_[&conn] = {};
    conn.on_data = [this, &conn](std::span<const std::uint8_t> data) {
        auto& buf = tcp_rx_[&conn];
        buf.insert(buf.end(), data.begin(), data.end());
        while (buf.size() >= 2) {
            const std::size_t len =
                static_cast<std::size_t>((buf[0] << 8) | buf[1]);
            if (buf.size() < 2 + len) break;
            net::DnsMessage query;
            bool ok = true;
            try {
                query = net::DnsMessage::parse(
                    {buf.data() + 2, len});
            } catch (const net::ParseError&) {
                ok = false;
            }
            buf.erase(buf.begin(), buf.begin() + static_cast<long>(2 + len));
            if (ok && !query.is_response) {
                ++tcp_queries_;
                conn.send(DnsTcpFramer::frame(answer(query).serialize()));
            }
        }
    };
    conn.on_remote_close = [this, &conn] {
        tcp_rx_.erase(&conn);
        conn.close();
    };
    conn.on_error = [this, &conn](const std::string&) {
        tcp_rx_.erase(&conn);
    };
}

void DnsTcpFramer::feed(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
}

bool DnsTcpFramer::next(net::Bytes& out) {
    if (buf_.size() < 2) return false;
    const std::size_t len = static_cast<std::size_t>((buf_[0] << 8) | buf_[1]);
    if (buf_.size() < 2 + len) return false;
    out.assign(buf_.begin() + 2, buf_.begin() + static_cast<long>(2 + len));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(2 + len));
    return true;
}

net::Bytes DnsTcpFramer::frame(const net::Bytes& message) {
    GK_EXPECTS(message.size() <= 0xffff);
    net::Bytes out;
    out.reserve(message.size() + 2);
    out.push_back(static_cast<std::uint8_t>(message.size() >> 8));
    out.push_back(static_cast<std::uint8_t>(message.size()));
    out.insert(out.end(), message.begin(), message.end());
    return out;
}

void DnsClient::query_udp(net::Endpoint server, const std::string& name,
                          Handler h, int retries, sim::Duration timeout) {
    const std::uint16_t id = next_id_++;
    auto& sock = host_.udp_open(net::Ipv4Addr::any(), 0);

    // Shared state between receive path and retry timer.
    struct Pending {
        Host& host;
        UdpSocket& sock;
        Handler handler;
        sim::EventId timer;
        bool done = false;
        int tries_left;
        // Owns the retransmit closure; the closure reaches itself through
        // this field instead of capturing its own shared_ptr, so finish()
        // can break the cycle and let the whole query state be freed.
        std::shared_ptr<std::function<void()>> resend;
    };
    auto st = std::make_shared<Pending>(
        Pending{host_, sock, std::move(h), {}, false, retries, nullptr});

    auto finish = [st](Result r) {
        if (st->done) return;
        st->done = true;
        if (st->timer) st->host.loop().cancel(st->timer);
        st->host.udp_close(st->sock);
        auto handler = std::move(st->handler);
        st->handler = nullptr;
        st->resend = nullptr;
        handler(r);
    };

    sock.set_receive_handler([finish, id](net::Endpoint,
                                          std::span<const std::uint8_t> pl,
                                          const net::PacketView&) {
        net::DnsMessage resp;
        try {
            resp = net::DnsMessage::parse(pl);
        } catch (const net::ParseError&) {
            return;
        }
        if (!resp.is_response || resp.id != id) return;
        if (resp.rcode != 0 || resp.answers.empty()) {
            finish({false, {}, "rcode " + std::to_string(resp.rcode)});
            return;
        }
        try {
            finish({true, resp.answers.front().a_addr(), ""});
        } catch (const net::ParseError&) {
            finish({false, {}, "malformed answer"});
        }
    });

    const auto query = net::DnsMessage::make_query(id, name).serialize();
    // std::function must be copyable: wrap the recursion in a shared fn.
    st->resend = std::make_shared<std::function<void()>>();
    *st->resend = [st, finish, server, query, timeout] {
        if (st->done) return;
        st->sock.send_to(server, query);
        st->timer = st->host.loop().after(timeout, [st, finish] {
            if (st->done) return;
            if (st->tries_left-- > 0) {
                (*st->resend)();
            } else {
                finish({false, {}, "timeout"});
            }
        });
    };
    (*st->resend)();
}

void DnsClient::query_tcp(net::Endpoint server, net::Ipv4Addr local_addr,
                          const std::string& name, Handler h,
                          sim::Duration timeout) {
    const std::uint16_t id = next_id_++;
    auto& conn = host_.tcp_connect(local_addr, 0, server);

    struct Pending {
        Host& host;
        TcpSocket& conn;
        Handler handler;
        DnsTcpFramer framer;
        sim::EventId timer;
        bool done = false;
    };
    auto st = std::make_shared<Pending>(
        Pending{host_, conn, std::move(h), {}, {}, false});

    auto finish = [st](Result r) {
        if (st->done) return;
        st->done = true;
        if (st->timer) st->host.loop().cancel(st->timer);
        // Tear the connection down; ignore errors from the abort itself.
        st->conn.on_error = nullptr;
        if (st->conn.state() != TcpSocket::State::Closed) st->conn.abort();
        st->handler(r);
    };

    st->timer = host_.loop().after(timeout, [finish] {
        finish({false, {}, "timeout"});
    });

    conn.on_established = [st, id, name] {
        const auto q = net::DnsMessage::make_query(id, name).serialize();
        st->conn.send(DnsTcpFramer::frame(q));
    };
    conn.on_data = [st, finish, id](std::span<const std::uint8_t> data) {
        st->framer.feed(data);
        net::Bytes msg;
        while (st->framer.next(msg)) {
            net::DnsMessage resp;
            try {
                resp = net::DnsMessage::parse(msg);
            } catch (const net::ParseError&) {
                continue;
            }
            if (!resp.is_response || resp.id != id) continue;
            if (resp.rcode != 0 || resp.answers.empty()) {
                finish({false, {}, "rcode " + std::to_string(resp.rcode)});
                return;
            }
            try {
                finish({true, resp.answers.front().a_addr(), ""});
            } catch (const net::ParseError&) {
                finish({false, {}, "malformed answer"});
            }
            return;
        }
    };
    conn.on_error = [finish](const std::string& reason) {
        finish({false, {}, reason});
    };
}

} // namespace gatekit::stack
