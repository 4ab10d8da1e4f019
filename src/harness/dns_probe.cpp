#include "harness/dns_probe.hpp"

#include <memory>

#include "stack/dns_service.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"

namespace gatekit::harness {

namespace {

class DnsMeasurement : public std::enable_shared_from_this<DnsMeasurement> {
public:
    DnsMeasurement(Testbed& tb, int slot, DnsProbeConfig config,
                   std::function<void(DnsProbeResult)> done)
        : tb_(tb), slot_(tb.slot(slot)), config_(config),
          done_(std::move(done)), client_(tb.client()) {}

    void start() {
        auto self = shared_from_this();
        const net::Endpoint proxy{slot_.gw->lan_addr(), net::kDnsPort};
        client_.query_udp(proxy, Testbed::kTestName,
                          [self](const stack::DnsClient::Result& r) {
                              self->result_.udp_ok = r.ok;
                              self->run_tcp();
                          },
                          config_.udp_retries);
    }

private:
    void run_tcp() {
        auto self = shared_from_this();
        const net::Endpoint proxy{slot_.gw->lan_addr(), net::kDnsPort};
        const auto udp_before = tb_.dns().udp_queries();
        client_.query_tcp(
            proxy, slot_.client_addr, Testbed::kTestName,
            [self, udp_before](const stack::DnsClient::Result& r) {
                self->result_.tcp_answers = r.ok;
                // "Refused" means no listener; a timeout means the proxy
                // accepted but never answered.
                self->result_.tcp_connects =
                    r.ok || r.error != "connection refused";
                self->result_.tcp_upstream_udp =
                    r.ok && self->tb_.dns().udp_queries() > udp_before;
                self->run_big_udp();
            });
    }

    /// DNSSEC readiness step 1: EDNS0 query for a ~1.1 KB TXT answer.
    void run_big_udp() {
        auto self = shared_from_this();
        auto& sock = tb_.client().udp_open(slot_.client_addr, 0);
        big_sock_ = &sock;
        sock.set_receive_handler(
            [self](net::Endpoint, std::span<const std::uint8_t> payload,
                   const net::PacketView&) {
                net::DnsMessage resp;
                try {
                    resp = net::DnsMessage::parse(payload);
                } catch (const net::ParseError&) {
                    return;
                }
                if (!resp.is_response || resp.id != 0x6b1d) return;
                if (resp.truncated) {
                    self->result_.truncated_seen = true;
                } else if (!resp.answers.empty() &&
                           payload.size() > Testbed::kBigAnswerSize) {
                    self->result_.big_udp_ok = true;
                }
            });
        big_udp_attempt(0);
    }

    void big_udp_attempt(int attempt) {
        auto self = shared_from_this();
        auto query = net::DnsMessage::make_query(0x6b1d, Testbed::kBigName,
                                                 net::kDnsTypeTxt);
        query.edns_udp_size = 4096;
        big_sock_->send_to({slot_.gw->lan_addr(), net::kDnsPort},
                           query.serialize());
        tb_.loop().after(config_.big_wait, [self, attempt] {
            // A TC response is an answer too — only silence is retried.
            if (!self->result_.big_udp_ok && !self->result_.truncated_seen &&
                attempt < self->config_.big_retries) {
                ++self->result_.big_udp_retries;
                self->big_udp_attempt(attempt + 1);
                return;
            }
            self->tb_.client().udp_close(*self->big_sock_);
            if (self->result_.big_udp_ok) {
                self->result_.dnssec_ready = true;
                self->done_(self->result_);
            } else {
                self->run_big_tcp();
            }
        });
    }

    /// DNSSEC readiness step 2: resolvers retry over TCP after TC (or
    /// after a UDP timeout); the proxy's TCP support decides the outcome.
    void run_big_tcp() {
        auto self = shared_from_this();
        auto& conn = tb_.client().tcp_connect(
            slot_.client_addr, 0, {slot_.gw->lan_addr(), net::kDnsPort});
        tcp_conn_ = &conn;
        auto framer = std::make_shared<stack::DnsTcpFramer>();
        auto finished = std::make_shared<bool>(false);
        auto finish = [self, finished](bool ok) {
            if (*finished) return;
            *finished = true;
            self->result_.dnssec_ready = ok;
            // Tear the probe connection down one event later (a verdict
            // can arrive from inside the socket's own callback) so its
            // handlers stop owning this measurement.
            self->tb_.loop().after(sim::Duration::zero(), [self] {
                if (self->tcp_conn_ == nullptr) return;
                self->tcp_conn_->on_established = nullptr;
                self->tcp_conn_->on_data = nullptr;
                self->tcp_conn_->on_error = nullptr;
                self->tcp_conn_->abort();
                self->tcp_conn_ = nullptr;
            });
            self->done_(self->result_);
        };
        conn.on_established = [&conn] {
            auto query = net::DnsMessage::make_query(
                0x6b1e, Testbed::kBigName, net::kDnsTypeTxt);
            conn.send(stack::DnsTcpFramer::frame(query.serialize()));
        };
        conn.on_data = [framer, finish](std::span<const std::uint8_t> d) {
            framer->feed(d);
            net::Bytes msg;
            while (framer->next(msg)) {
                try {
                    const auto resp = net::DnsMessage::parse(msg);
                    finish(resp.is_response && !resp.answers.empty() &&
                           msg.size() > Testbed::kBigAnswerSize);
                } catch (const net::ParseError&) {
                }
                return;
            }
        };
        conn.on_error = [self, finish](const std::string&) {
            self->tcp_conn_ = nullptr; // the stack reaps errored sockets
            finish(false);
        };
        tb_.loop().after(std::chrono::seconds(5),
                         [finish] { finish(false); });
    }

    Testbed& tb_;
    Testbed::DeviceSlot& slot_;
    DnsProbeConfig config_;
    std::function<void(DnsProbeResult)> done_;
    stack::DnsClient client_;
    stack::UdpSocket* big_sock_ = nullptr;
    stack::TcpSocket* tcp_conn_ = nullptr;
    DnsProbeResult result_;
};

} // namespace

void measure_dns(Testbed& tb, int slot,
                 std::function<void(DnsProbeResult)> done) {
    measure_dns(tb, slot, DnsProbeConfig{}, std::move(done));
}

void measure_dns(Testbed& tb, int slot, const DnsProbeConfig& config,
                 std::function<void(DnsProbeResult)> done) {
    auto m = std::make_shared<DnsMeasurement>(tb, slot, config,
                                              std::move(done));
    m->start();
}

} // namespace gatekit::harness
