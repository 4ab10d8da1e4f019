#include "gateway/dns_proxy.hpp"

#include "stack/host.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"

namespace gatekit::gateway {

DnsProxy::DnsProxy(stack::Host& host, const DeviceProfile& profile)
    : host_(host), profile_(profile) {}

DnsProxy::~DnsProxy() {
    while (!udp_inflight_.empty())
        close_udp_inflight(udp_inflight_.size() - 1, true);
    while (!tcp_inflight_.empty())
        close_tcp_inflight(tcp_inflight_.size() - 1, true);
    if (lan_sock_ != nullptr) host_.udp_close(*lan_sock_);
    if (upstream_sock_ != nullptr) host_.udp_close(*upstream_sock_);
    if (tcp_listener_ != nullptr) host_.tcp_close_listener(*tcp_listener_);
}

void DnsProxy::start(net::Endpoint upstream, net::Ipv4Addr wan_addr) {
    upstream_ = upstream;
    wan_addr_ = wan_addr;

    if (profile_.dns_udp_proxy) {
        lan_sock_ = &host_.udp_open(net::Ipv4Addr::any(), net::kDnsPort);
        lan_sock_->set_receive_handler(
            [this](net::Endpoint src, std::span<const std::uint8_t> payload,
                   const net::PacketView&) { on_lan_query(src, payload); });
        upstream_sock_ = &host_.udp_open(net::Ipv4Addr::any(), 0);
        upstream_sock_->set_receive_handler(
            [this](net::Endpoint, std::span<const std::uint8_t> payload,
                   const net::PacketView&) { on_upstream_response(payload); });
    }

    if (profile_.dns_tcp != DnsTcpMode::NoListen) {
        tcp_listener_ = &host_.tcp_listen(net::kDnsPort);
        tcp_listener_->set_accept_handler(
            [this](stack::TcpSocket& conn) { on_tcp_conn(conn); });
    }
}

void DnsProxy::bind_observability(obs::MetricsRegistry& reg,
                                  const std::string& device) {
    const auto labels = reg.label_set({{"device", device}});
    m_udp_queries_ = reg.counter("dns.udp.queries", labels);
    m_tcp_accepted_ = reg.counter("dns.tcp.accepted", labels);
    m_oversize_drops_ = reg.counter("dns.oversize.drops", labels);
    m_pending_depth_ = reg.gauge("dns.pending.depth", labels);
}

void DnsProxy::on_lan_query(net::Endpoint client,
                            std::span<const std::uint8_t> payload) {
    net::DnsMessage query;
    try {
        query = net::DnsMessage::parse(payload);
    } catch (const net::ParseError&) {
        return;
    }
    if (query.is_response) return;
    prune_pending();
    pending_[PendingKey{query.id, client}] = host_.loop().now();
    ++udp_forwarded_;
    obs::inc(m_udp_queries_);
    obs::set(m_pending_depth_, static_cast<double>(pending_.size()));
    if (profile_.dns_proxy_strips_edns && query.edns_udp_size) {
        // Re-serialize without the OPT record (the studies' observed
        // breakage: the proxy "cleans" queries it does not understand).
        query.edns_udp_size.reset();
        upstream_sock_->send_to(upstream_, query.serialize());
        return;
    }
    upstream_sock_->send_to(upstream_,
                            net::Bytes(payload.begin(), payload.end()));
}

void DnsProxy::on_upstream_response(std::span<const std::uint8_t> payload) {
    net::DnsMessage resp;
    try {
        resp = net::DnsMessage::parse(payload);
    } catch (const net::ParseError&) {
        return;
    }
    // Entries sharing an id are adjacent in key order; the response is
    // matched to the oldest of them (map order within one id is by
    // client, but collisions are rare enough that FIFO-by-key is fine).
    auto it = pending_.lower_bound(PendingKey{resp.id, {}});
    if (it == pending_.end() || it->first.id != resp.id) return;
    // Consume the pending entry even when the response is then dropped:
    // the transaction is over either way, and keeping it would leak the
    // slot and misdirect a later unrelated response with the same id.
    const auto client = it->first.client;
    pending_.erase(it);
    obs::set(m_pending_depth_, static_cast<double>(pending_.size()));
    if (profile_.dns_proxy_max_udp != 0 &&
        payload.size() > profile_.dns_proxy_max_udp) {
        // Silently dropped on the wire, as the broken devices do — but
        // the registry still sees it.
        obs::inc(m_oversize_drops_);
        return;
    }
    lan_sock_->send_to(client, net::Bytes(payload.begin(), payload.end()));
}

void DnsProxy::prune_pending() {
    // Queries whose upstream response never arrived would otherwise pin
    // their slot forever. Amortized over inserts; the map stays tiny.
    const auto now = host_.loop().now();
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (now - it->second > kQueryTtl)
            it = pending_.erase(it);
        else
            ++it;
    }
}

void DnsProxy::on_tcp_conn(stack::TcpSocket& conn) {
    ++tcp_accepted_;
    obs::inc(m_tcp_accepted_);
    if (profile_.dns_tcp == DnsTcpMode::AcceptOnly) {
        // Accepts the connection, reads, answers nothing. (Real devices
        // in this class leave dig hanging until its timeout.)
        conn.on_data = [](std::span<const std::uint8_t>) {};
        conn.on_remote_close = [&conn] { conn.close(); };
        return;
    }
    auto framer = std::make_shared<stack::DnsTcpFramer>();
    tcp_framers_[&conn] = framer;
    conn.on_data = [this, framer, &conn](std::span<const std::uint8_t> d) {
        framer->feed(d);
        net::Bytes query;
        while (framer->next(query)) forward_tcp_query(conn, query);
    };
    conn.on_remote_close = [this, &conn] {
        tcp_framers_.erase(&conn);
        cancel_inflight_for(&conn);
        conn.close();
    };
    conn.on_error = [this, &conn](const std::string&) {
        tcp_framers_.erase(&conn);
        cancel_inflight_for(&conn);
    };
}

void DnsProxy::forward_tcp_query(stack::TcpSocket& client_conn,
                                 net::Bytes query) {
    if (profile_.dns_tcp == DnsTcpMode::ProxyViaUdp) {
        // ap's quirk: the TCP-received query goes upstream over UDP.
        net::DnsMessage q;
        try {
            q = net::DnsMessage::parse(query);
        } catch (const net::ParseError&) {
            return;
        }
        auto& sock = host_.udp_open(net::Ipv4Addr::any(), 0);
        // Track the query so a vanishing client cancels it and a silent
        // upstream cannot leak the socket; the handler resolves the
        // client through the tracking entry, never a captured pointer.
        const auto expiry =
            host_.loop().after(kQueryTtl, [this, sock_ptr = &sock] {
                for (std::size_t i = 0; i < udp_inflight_.size(); ++i) {
                    if (udp_inflight_[i].sock == sock_ptr) {
                        close_udp_inflight(i, true);
                        return;
                    }
                }
            });
        udp_inflight_.push_back(UdpInflight{&sock, &client_conn, expiry});
        sock.set_receive_handler(
            [this, sock_ptr = &sock](net::Endpoint,
                                     std::span<const std::uint8_t> payload,
                                     const net::PacketView&) {
                for (std::size_t i = 0; i < udp_inflight_.size(); ++i) {
                    if (udp_inflight_[i].sock != sock_ptr) continue;
                    udp_inflight_[i].client->send(stack::DnsTcpFramer::frame(
                        net::Bytes(payload.begin(), payload.end())));
                    close_udp_inflight(i, true);
                    return;
                }
            });
        sock.send_to(upstream_, std::move(query));
        return;
    }

    // ProxyTcp: one upstream TCP connection per query, tracked so a
    // closed client cancels it and an unanswered one expires instead of
    // leaking. Callbacks resolve the client via the tracking entry; the
    // old captured-pointer scheme dangled once the client was reaped.
    auto& up = host_.tcp_connect(wan_addr_, 0, upstream_);
    auto up_framer = std::make_shared<stack::DnsTcpFramer>();
    const auto expiry = host_.loop().after(kQueryTtl, [this, up_ptr = &up] {
        for (std::size_t i = 0; i < tcp_inflight_.size(); ++i) {
            if (tcp_inflight_[i].up == up_ptr) {
                close_tcp_inflight(i, true);
                return;
            }
        }
    });
    tcp_inflight_.push_back(TcpInflight{&up, &client_conn, expiry});
    up.on_established = [&up, q = std::move(query)] {
        up.send(stack::DnsTcpFramer::frame(q));
    };
    up.on_data = [this, up_framer, up_ptr = &up](
                     std::span<const std::uint8_t> d) {
        up_framer->feed(d);
        net::Bytes resp;
        while (up_framer->next(resp)) {
            for (std::size_t i = 0; i < tcp_inflight_.size(); ++i) {
                if (tcp_inflight_[i].up != up_ptr) continue;
                tcp_inflight_[i].client->send(
                    stack::DnsTcpFramer::frame(resp));
                close_tcp_inflight(i, false);
                up_ptr->close();
                return;
            }
        }
    };
    up.on_remote_close = [this, up_ptr = &up] {
        for (std::size_t i = 0; i < tcp_inflight_.size(); ++i) {
            if (tcp_inflight_[i].up == up_ptr) {
                close_tcp_inflight(i, false);
                break;
            }
        }
        up_ptr->close();
    };
    up.on_error = [this, up_ptr = &up](const std::string&) {
        for (std::size_t i = 0; i < tcp_inflight_.size(); ++i) {
            if (tcp_inflight_[i].up == up_ptr) {
                // The socket is already dead; just drop the entry.
                host_.loop().cancel(tcp_inflight_[i].expiry);
                tcp_inflight_.erase(tcp_inflight_.begin() +
                                    static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
    };
}

void DnsProxy::cancel_inflight_for(stack::TcpSocket* client) {
    for (std::size_t i = udp_inflight_.size(); i-- > 0;)
        if (udp_inflight_[i].client == client) close_udp_inflight(i, true);
    for (std::size_t i = tcp_inflight_.size(); i-- > 0;)
        if (tcp_inflight_[i].client == client) close_tcp_inflight(i, true);
}

void DnsProxy::close_udp_inflight(std::size_t idx, bool close_sock) {
    UdpInflight entry = udp_inflight_[idx];
    udp_inflight_.erase(udp_inflight_.begin() +
                        static_cast<std::ptrdiff_t>(idx));
    host_.loop().cancel(entry.expiry);
    if (close_sock) host_.udp_close(*entry.sock);
}

void DnsProxy::close_tcp_inflight(std::size_t idx, bool abort_upstream) {
    TcpInflight entry = tcp_inflight_[idx];
    tcp_inflight_.erase(tcp_inflight_.begin() +
                        static_cast<std::ptrdiff_t>(idx));
    host_.loop().cancel(entry.expiry);
    if (abort_upstream) {
        // Detach first: abort() fires on_error, which must not re-enter
        // the (already erased) tracking entry.
        entry.up->on_data = nullptr;
        entry.up->on_remote_close = nullptr;
        entry.up->on_error = nullptr;
        entry.up->abort();
    }
}

} // namespace gatekit::gateway
