#include "harness/futurework_probes.hpp"

#include <memory>

#include "stack/udp_socket.hpp"
#include "util/assert.hpp"

namespace gatekit::harness {

namespace {

class QuirksMeasurement
    : public std::enable_shared_from_this<QuirksMeasurement> {
public:
    QuirksMeasurement(Testbed& tb, int slot,
                      std::function<void(QuirksResult)> done)
        : tb_(tb), slot_(tb.slot(slot)), done_(std::move(done)),
          loop_(tb.loop()) {}

    void start() {
        server_sock_ = &tb_.server().udp_open(net::Ipv4Addr::any(), kPort);
        server_sock_->set_receive_handler(
            [self = shared_from_this()](net::Endpoint,
                                        std::span<const std::uint8_t>,
                                        const net::PacketView& v) {
                self->last_ttl_ = v.ttl();
                self->last_route_ = net::recorded_route(v.options());
                ++self->server_rx_;
            });
        client_sock_ = &tb_.client().udp_open(slot_.client_addr, 47001);

        // Step 1: TTL observation.
        stack::UdpSocket::SendOptions opts;
        opts.ttl = 44;
        client_sock_->send_to({slot_.server_addr, kPort}, {{'t'}}, opts);
        auto self = shared_from_this();
        loop_.after(std::chrono::milliseconds(100), [self] {
            self->result_.decrements_ttl =
                self->server_rx_ > 0 && self->last_ttl_ < 44;
            self->step_record_route();
        });
    }

private:
    static constexpr std::uint16_t kPort = 47000;

    void step_record_route() {
        stack::UdpSocket::SendOptions opts;
        opts.ip_options = net::Ipv4Packet::make_record_route_option(4);
        client_sock_->send_to({slot_.server_addr, kPort}, {{'r'}}, opts);
        auto self = shared_from_this();
        loop_.after(std::chrono::milliseconds(100), [self] {
            for (const auto hop : self->last_route_)
                if (hop == self->slot_.gw_wan_addr)
                    self->result_.honors_record_route = true;
            self->step_hairpin();
        });
    }

    void step_hairpin() {
        // Socket A creates a binding toward the server; socket B then
        // targets A's external mapping (WAN address + A's port). On a
        // hairpinning device, A receives B's packet.
        hp_target_ = &tb_.client().udp_open(slot_.client_addr, 47002);
        hp_target_->set_receive_handler(
            [self = shared_from_this()](net::Endpoint,
                                        std::span<const std::uint8_t>,
                                        const net::PacketView&) {
                self->result_.hairpins_udp = true;
            });
        hp_target_->send_to({slot_.server_addr, kPort}, {{'a'}});
        auto self = shared_from_this();
        loop_.after(std::chrono::milliseconds(100), [self] {
            // A's external port: preserved or not, the server saw it.
            // Use the port the server recorded from A's packet.
            self->client_sock_->send_to(
                {self->slot_.gw_wan_addr, self->ext_port_of_target()},
                {{'b'}});
            self->loop_.after(std::chrono::milliseconds(200), [self] {
                self->finish();
            });
        });
        server_sock_->set_receive_handler(
            [self = shared_from_this()](net::Endpoint src,
                                        std::span<const std::uint8_t>,
                                        const net::PacketView&) {
                self->last_ext_port_ = src.port;
            });
    }

    std::uint16_t ext_port_of_target() const {
        return last_ext_port_ != 0 ? last_ext_port_ : 47002;
    }

    void finish() {
        tb_.server().udp_close(*server_sock_);
        tb_.client().udp_close(*client_sock_);
        tb_.client().udp_close(*hp_target_);
        done_(result_);
    }

    Testbed& tb_;
    Testbed::DeviceSlot& slot_;
    std::function<void(QuirksResult)> done_;
    sim::EventLoop& loop_;
    stack::UdpSocket* server_sock_ = nullptr;
    stack::UdpSocket* client_sock_ = nullptr;
    stack::UdpSocket* hp_target_ = nullptr;
    QuirksResult result_;
    std::uint8_t last_ttl_ = 0;
    std::vector<net::Ipv4Addr> last_route_;
    std::uint16_t last_ext_port_ = 0;
    int server_rx_ = 0;
};

} // namespace

void measure_quirks(Testbed& tb, int slot,
                    std::function<void(QuirksResult)> done) {
    auto m = std::make_shared<QuirksMeasurement>(tb, slot, std::move(done));
    m->start();
}

void measure_stun(Testbed& tb, int slot,
                  std::function<void(StunProbeResult)> done) {
    auto& s = tb.slot(slot);
    // Two server instances on different ports distinguish endpoint-
    // independent from endpoint-dependent mapping.
    auto srv_a = std::make_shared<stun::StunServer>(tb.server(),
                                                    stun::kDefaultPort);
    auto srv_b = std::make_shared<stun::StunServer>(
        tb.server(), static_cast<std::uint16_t>(stun::kDefaultPort + 1));
    auto client = std::make_shared<stun::StunClient>(tb.client());
    const auto wan = s.gw_wan_addr;
    client->discover(
        s.client_addr, {s.server_addr, stun::kDefaultPort},
        {s.server_addr,
         static_cast<std::uint16_t>(stun::kDefaultPort + 1)},
        [done = std::move(done), wan, srv_a, srv_b,
         client](const stun::StunResult& r) {
            StunProbeResult out;
            out.success = r.ok;
            out.mapping = r.mapping;
            out.port_preserved = r.port_preserved;
            out.reflexive_correct = r.ok && r.reflexive.addr == wan;
            done(out);
        });
}

void measure_binding_rate(Testbed& tb, int slot, int count,
                          std::function<void(BindingRateResult)> done) {
    auto& s = tb.slot(slot);
    auto& loop = tb.loop();
    auto server = &tb.server().udp_open(net::Ipv4Addr::any(), 47100);
    auto established = std::make_shared<int>(0);
    auto last_rx = std::make_shared<sim::TimePoint>(loop.now());
    server->set_receive_handler(
        [established, last_rx, &loop](net::Endpoint,
                                      std::span<const std::uint8_t>,
                                      const net::PacketView&) {
            ++*established;
            *last_rx = loop.now();
        });

    const auto start = loop.now();
    std::vector<stack::UdpSocket*> socks;
    socks.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        auto& sock = tb.client().udp_open(
            s.client_addr, static_cast<std::uint16_t>(48000 + i));
        sock.send_to({s.server_addr, 47100}, {{'x'}});
        socks.push_back(&sock);
    }
    loop.after(std::chrono::seconds(2), [&tb, server, socks, established,
                                         last_rx, count, start,
                                         done = std::move(done)] {
        BindingRateResult r;
        r.attempted = count;
        r.established = *established;
        // Rate over the window from the burst start to the last binding
        // observed: the device's packet path is the limiter here.
        const double window = sim::to_sec(*last_rx - start);
        r.bindings_per_sec = window > 0 ? *established / window
                                        : static_cast<double>(*established);
        for (auto* sock : socks) tb.client().udp_close(*sock);
        tb.server().udp_close(*server);
        done(r);
    });
}

} // namespace gatekit::harness
