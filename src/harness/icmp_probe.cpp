#include "harness/icmp_probe.hpp"

#include <memory>

#include "net/checksum.hpp"
#include "net/udp.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"
#include "util/assert.hpp"

namespace gatekit::harness {

namespace {

using gateway::IcmpKind;
using gateway::kIcmpKindCount;

struct WireError {
    net::IcmpType type;
    std::uint8_t code;
    std::uint32_t rest;
};

WireError wire_error(IcmpKind kind) {
    using net::IcmpType;
    namespace code = net::icmp_code;
    switch (kind) {
    case IcmpKind::ReassemblyTimeExceeded:
        return {IcmpType::TimeExceeded, code::kReassemblyTimeExceeded, 0};
    case IcmpKind::FragNeeded:
        return {IcmpType::DestUnreachable, code::kFragNeeded, 1400};
    case IcmpKind::ParamProblem:
        return {IcmpType::ParamProblem, 0, 0x14000000u};
    case IcmpKind::SourceRouteFailed:
        return {IcmpType::DestUnreachable, code::kSourceRouteFailed, 0};
    case IcmpKind::SourceQuench:
        return {IcmpType::SourceQuench, 0, 0};
    case IcmpKind::TtlExceeded:
        return {IcmpType::TimeExceeded, code::kTtlExceeded, 0};
    case IcmpKind::HostUnreachable:
        return {IcmpType::DestUnreachable, code::kHostUnreachable, 0};
    case IcmpKind::NetUnreachable:
        return {IcmpType::DestUnreachable, code::kNetUnreachable, 0};
    case IcmpKind::PortUnreachable:
        return {IcmpType::DestUnreachable, code::kPortUnreachable, 0};
    case IcmpKind::ProtoUnreachable:
        return {IcmpType::DestUnreachable, code::kProtoUnreachable, 0};
    case IcmpKind::kCount:
        break;
    }
    GK_ASSERT(false);
    return {net::IcmpType::DestUnreachable, 0, 0};
}

class IcmpMeasurement : public std::enable_shared_from_this<IcmpMeasurement> {
public:
    IcmpMeasurement(Testbed& tb, int slot, IcmpProbeConfig config,
                    std::function<void(IcmpProbeResult)> done)
        : tb_(tb), slot_(tb.slot(slot)), config_(config),
          done_(std::move(done)), loop_(tb.loop()) {}

    void start() {
        // Sink socket so client UDP flows do not draw Port-Unreachable.
        udp_sink_ = &tb_.server().udp_open(net::Ipv4Addr::any(), kUdpPort);
        tcp_listener_ = &tb_.server().tcp_listen(kTcpPort);
        tcp_listener_->set_accept_handler([](stack::TcpSocket& conn) {
            conn.on_data = [](std::span<const std::uint8_t>) {};
            conn.on_error = [](const std::string&) {};
        });

        // Capture client->server datagrams as they leave the NAT.
        tb_.server().set_ip_observer(
            [self = shared_from_this()](stack::Iface&,
                                        const net::PacketView& v,
                                        std::span<const std::uint8_t> raw) {
                if (v.src() == self->slot_.gw_wan_addr)
                    self->captured_.assign(raw.begin(), raw.end());
            });

        // Watch everything that reaches the client.
        tb_.client().set_icmp_observer(
            [self = shared_from_this()](const net::PacketView&,
                                        const net::IcmpMessage& msg) {
                self->on_client_icmp(msg);
            });
        tb_.client().set_ip_observer(
            [self = shared_from_this()](stack::Iface&,
                                        const net::PacketView& v,
                                        std::span<const std::uint8_t>) {
                self->on_client_ip(v);
            });

        case_index_ = 0;
        next_case();
    }

private:
    static constexpr std::uint16_t kUdpPort = 33333;
    static constexpr std::uint16_t kTcpPort = 33343;
    static constexpr int kCaseCount = 2 * kIcmpKindCount + 1;

    void next_case() {
        if (case_index_ >= kCaseCount) {
            finish();
            return;
        }
        captured_.clear();
        got_error_ = false;
        got_rst_ = false;
        inner_transport_ok_ = false;
        inner_ip_ck_ok_ = false;

        if (case_index_ < kIcmpKindCount) {
            run_udp_case(static_cast<IcmpKind>(case_index_));
        } else if (case_index_ < 2 * kIcmpKindCount) {
            run_tcp_case(
                static_cast<IcmpKind>(case_index_ - kIcmpKindCount));
        } else {
            run_query_case();
        }
    }

    void record_and_advance(IcmpVerdict* out) {
        auto self = shared_from_this();
        loop_.after(std::chrono::seconds(2), [self, out] {
            if (out != nullptr) {
                out->forwarded = self->got_error_;
                out->rst_instead = self->got_rst_;
                out->embedded_transport_ok = self->inner_transport_ok_;
                out->embedded_ip_checksum_ok = self->inner_ip_ck_ok_;
            } else {
                self->result_.query_error_forwarded = self->got_error_;
            }
            ++self->case_index_;
            self->next_case();
        });
    }

    /// Forge the error at the server, aimed back at the NAT.
    void inject_error(IcmpKind kind) {
        GK_ASSERT(!captured_.empty());
        const auto we = wire_error(kind);
        const auto err =
            net::IcmpMessage::make_error(we.type, we.code, we.rest,
                                         captured_);
        tb_.server().send_icmp(slot_.server_addr, slot_.gw_wan_addr, err);
    }

    void run_udp_case(IcmpKind kind) {
        expected_client_port_ = static_cast<std::uint16_t>(
            45000 + case_index_);
        client_udp_ = &tb_.client().udp_open(slot_.client_addr,
                                             expected_client_port_);
        udp_flow_attempt(kind, 0);
    }

    void udp_flow_attempt(IcmpKind kind, int attempt) {
        auto self = shared_from_this();
        client_udp_->send_to({slot_.server_addr, kUdpPort}, {{'f', 'l'}});
        const auto wait = attempt == 0 ? sim::Duration(
                                             std::chrono::milliseconds(100))
                                       : config_.retry_wait;
        loop_.after(wait, [self, kind, attempt] {
            if (self->captured_.empty() &&
                attempt < self->config_.flow_retries) {
                ++self->result_.flow_retries;
                self->udp_flow_attempt(kind, attempt + 1);
                return;
            }
            if (!self->captured_.empty()) self->inject_error(kind);
            self->record_and_advance(
                &self->result_.udp[static_cast<std::size_t>(kind)]);
            self->tb_.client().udp_close(*self->client_udp_);
            self->client_udp_ = nullptr;
        });
    }

    void run_tcp_case(IcmpKind kind) {
        auto self = shared_from_this();
        expected_client_port_ = static_cast<std::uint16_t>(
            46000 + case_index_);
        auto& conn = tb_.client().tcp_connect(slot_.client_addr,
                                              expected_client_port_,
                                              {slot_.server_addr, kTcpPort});
        client_tcp_ = &conn;
        // An injected error can RST the flow; the stack then reaps the
        // socket, so drop our pointer before the deferred teardown runs.
        conn.on_error = [self](const std::string&) {
            self->client_tcp_ = nullptr;
        };
        conn.on_established = [self, &conn] {
            conn.send({'d', 'a', 't', 'a'}); // captured at the server
        };
        tcp_flow_wait(kind, 0);
    }

    /// TCP retransmits the handshake and the data segment on its own;
    /// a retry here just extends the capture window to let it.
    void tcp_flow_wait(IcmpKind kind, int attempt) {
        auto self = shared_from_this();
        const auto wait = attempt == 0 ? sim::Duration(
                                             std::chrono::milliseconds(200))
                                       : config_.retry_wait;
        loop_.after(wait, [self, kind, attempt] {
            if (self->captured_.empty() &&
                attempt < self->config_.flow_retries) {
                ++self->result_.flow_retries;
                self->tcp_flow_wait(kind, attempt + 1);
                return;
            }
            if (!self->captured_.empty()) self->inject_error(kind);
            self->record_and_advance(
                &self->result_.tcp[static_cast<std::size_t>(kind)]);
            // Tear the flow down only after the injected error has had
            // time to traverse: our own RST takes the shorter LAN path
            // and would otherwise clear the binding before the ICMP
            // reaches the NAT.
            self->loop_.after(std::chrono::milliseconds(500), [self] {
                if (self->client_tcp_ != nullptr) {
                    self->client_tcp_->on_error = nullptr;
                    self->client_tcp_->abort();
                    self->client_tcp_ = nullptr;
                }
            });
        });
    }

    void run_query_case() {
        expected_client_port_ = 0;
        query_flow_attempt(0);
    }

    void query_flow_attempt(int attempt) {
        auto self = shared_from_this();
        tb_.client().send_icmp(slot_.client_addr, slot_.server_addr,
                               net::IcmpMessage::make_echo(false, 0x7777, 1));
        const auto wait = attempt == 0 ? sim::Duration(
                                             std::chrono::milliseconds(100))
                                       : config_.retry_wait;
        loop_.after(wait, [self, attempt] {
            if (self->captured_.empty() &&
                attempt < self->config_.flow_retries) {
                ++self->result_.flow_retries;
                self->query_flow_attempt(attempt + 1);
                return;
            }
            if (!self->captured_.empty())
                self->inject_error(IcmpKind::HostUnreachable);
            self->record_and_advance(nullptr);
        });
    }

    void on_client_icmp(const net::IcmpMessage& msg) {
        if (!msg.is_error()) return;
        got_error_ = true;
        analyze_embedded(msg);
    }

    void on_client_ip(const net::PacketView& v) {
        // Detect ls2-style fabricated RSTs toward our TCP flow.
        if (v.protocol() == net::proto::kTcp && v.has_l4() &&
            expected_client_port_ != 0 && (v.tcp_flags() & 0x04) != 0 &&
            v.dst_port() == expected_client_port_)
            got_rst_ = true;
    }

    void analyze_embedded(const net::IcmpMessage& msg) {
        if (msg.payload.size() < 20) return;
        const auto& quoted = msg.payload;
        const std::size_t ihl = static_cast<std::size_t>(quoted[0] & 0xf) * 4;
        if (quoted.size() < ihl + 4) return;

        // Embedded IP checksum must verify over the embedded header.
        inner_ip_ck_ok_ =
            net::internet_checksum({quoted.data(), ihl}) == 0;

        // Embedded source must be the client's view: its own address and
        // original source port.
        std::uint32_t src = 0;
        for (int i = 0; i < 4; ++i)
            src = (src << 8) | quoted[12 + static_cast<std::size_t>(i)];
        const auto sport = static_cast<std::uint16_t>(
            (quoted[ihl] << 8) | quoted[ihl + 1]);
        inner_transport_ok_ = net::Ipv4Addr{src} == slot_.client_addr &&
                              sport == expected_client_port_;

        // A port-preserving NAT makes the port comparison blind: the
        // external and internal ports are identical. The embedded UDP
        // checksum (inside the 8 quoted bytes) is the tell — the prober
        // knows exactly what it originally sent, so it can compare the
        // quoted checksum with the one its own stack computed.
        const std::uint8_t proto = quoted[9];
        if (proto == net::proto::kUdp && quoted.size() >= ihl + 8 &&
            expected_client_port_ != 0) {
            const auto quoted_ck = static_cast<std::uint16_t>(
                (quoted[ihl + 6] << 8) | quoted[ihl + 7]);
            net::UdpDatagram original;
            original.src_port = expected_client_port_;
            original.dst_port = kUdpPort;
            original.payload = {'f', 'l'};
            const auto bytes =
                original.serialize(slot_.client_addr, slot_.server_addr);
            const auto expected_ck =
                static_cast<std::uint16_t>((bytes[6] << 8) | bytes[7]);
            if (quoted_ck != expected_ck) inner_transport_ok_ = false;
        }
    }

    void finish() {
        tb_.server().set_ip_observer(nullptr);
        tb_.client().set_icmp_observer(nullptr);
        tb_.client().set_ip_observer(nullptr);
        tb_.server().udp_close(*udp_sink_);
        tb_.server().tcp_close_listener(*tcp_listener_);
        done_(result_);
    }

    Testbed& tb_;
    Testbed::DeviceSlot& slot_;
    IcmpProbeConfig config_;
    std::function<void(IcmpProbeResult)> done_;
    sim::EventLoop& loop_;

    stack::UdpSocket* udp_sink_ = nullptr;
    stack::TcpListener* tcp_listener_ = nullptr;
    stack::UdpSocket* client_udp_ = nullptr;
    stack::TcpSocket* client_tcp_ = nullptr;

    IcmpProbeResult result_;
    int case_index_ = 0;
    net::Bytes captured_;
    std::uint16_t expected_client_port_ = 0;
    bool got_error_ = false;
    bool got_rst_ = false;
    bool inner_transport_ok_ = false;
    bool inner_ip_ck_ok_ = false;
};

} // namespace

void measure_icmp(Testbed& tb, int slot,
                  std::function<void(IcmpProbeResult)> done) {
    measure_icmp(tb, slot, IcmpProbeConfig{}, std::move(done));
}

void measure_icmp(Testbed& tb, int slot, const IcmpProbeConfig& config,
                  std::function<void(IcmpProbeResult)> done) {
    auto m = std::make_shared<IcmpMeasurement>(tb, slot, config,
                                               std::move(done));
    m->start();
}

} // namespace gatekit::harness
