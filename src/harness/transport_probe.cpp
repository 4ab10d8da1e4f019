#include "harness/transport_probe.hpp"

#include <memory>

#include "net/ethernet.hpp"
#include "stack/dccp_endpoint.hpp"
#include "stack/sctp_endpoint.hpp"

namespace gatekit::harness {

const char* to_string(NatAction a) {
    switch (a) {
    case NatAction::Dropped:
        return "dropped";
    case NatAction::Untranslated:
        return "untranslated";
    case NatAction::IpOnly:
        return "ip-only";
    }
    return "?";
}

namespace {

/// Classify the NAT's handling from the WAN-link capture: find the last
/// gateway->server frame of the given protocol and inspect its source.
NatAction classify(const Testbed::DeviceSlot& slot, std::uint8_t proto,
                   std::size_t from_record) {
    NatAction action = NatAction::Dropped;
    const auto& records = slot.wan_tap.records();
    for (std::size_t i = from_record; i < records.size(); ++i) {
        try {
            const auto frame = net::EthernetFrame::parse(records[i].frame);
            if (frame.ethertype != net::kEtherTypeIpv4) continue;
            const auto pkt = net::Ipv4Packet::parse(frame.payload);
            if (pkt.h.protocol != proto) continue;
            // Only the gateway->server direction reveals the NAT's
            // handling; the server's own replies (10.0.n.1 is also RFC
            // 1918 space) must not be mistaken for untranslated packets.
            if (pkt.h.src == slot.server_addr) continue;
            action = pkt.h.src == slot.gw_wan_addr ? NatAction::IpOnly
                                                   : NatAction::Untranslated;
        } catch (const net::ParseError&) {
        }
    }
    return action;
}

class TransportMeasurement
    : public std::enable_shared_from_this<TransportMeasurement> {
public:
    TransportMeasurement(Testbed& tb, int slot,
                         std::function<void(TransportSupportResult)> done)
        : tb_(tb), slot_(tb.slot(slot)), done_(std::move(done)),
          loop_(tb.loop()) {}

    void start() {
        // The verdicts read the WAN capture; arm it for this unit unless
        // something else already keeps it.
        if (!slot_.wan_tap.attached()) {
            slot_.wan_tap.attach(*slot_.wan_link);
            armed_here_ = true;
        }
        run_sctp();
    }

private:
    static constexpr std::uint16_t kPort = 38000;
    static constexpr sim::Duration kWait = std::chrono::seconds(10);

    void run_sctp() {
        auto self = shared_from_this();
        const auto tap_mark = slot_.wan_tap.records().size();
        auto& server = tb_.server().sctp_open(slot_.server_addr, kPort);
        server.listen();
        server.on_data = [self](std::span<const std::uint8_t>) {
            self->result_.sctp_data_ok = true;
        };
        auto& client = tb_.client().sctp_open(slot_.client_addr, kPort);
        client.on_established = [self, &client] {
            self->result_.sctp_connects = true;
            client.send_data({'p', 'i', 'n', 'g'});
        };
        client.on_error = [](const std::string&) {};
        client.connect({slot_.server_addr, kPort});

        loop_.after(kWait, [self, tap_mark, &server, &client] {
            self->result_.sctp_action =
                classify(self->slot_, net::proto::kSctp, tap_mark);
            self->tb_.server().sctp_close(server);
            self->tb_.client().sctp_close(client);
            self->run_dccp();
        });
    }

    void run_dccp() {
        auto self = shared_from_this();
        const auto tap_mark = slot_.wan_tap.records().size();
        auto& server = tb_.server().dccp_open(slot_.server_addr, kPort);
        server.listen();
        auto& client = tb_.client().dccp_open(slot_.client_addr, kPort);
        client.on_established = [self] {
            self->result_.dccp_connects = true;
        };
        client.on_error = [](const std::string&) {};
        client.connect({slot_.server_addr, kPort});

        loop_.after(kWait, [self, tap_mark, &server, &client] {
            self->result_.dccp_action =
                classify(self->slot_, net::proto::kDccp, tap_mark);
            self->tb_.server().dccp_close(server);
            self->tb_.client().dccp_close(client);
            if (self->armed_here_) {
                self->slot_.wan_tap.detach();
                self->slot_.wan_tap.clear();
            }
            self->done_(self->result_);
        });
    }

    Testbed& tb_;
    Testbed::DeviceSlot& slot_;
    std::function<void(TransportSupportResult)> done_;
    sim::EventLoop& loop_;
    TransportSupportResult result_;
    bool armed_here_ = false;
};

} // namespace

void measure_transport_support(
    Testbed& tb, int slot, std::function<void(TransportSupportResult)> done) {
    auto m = std::make_shared<TransportMeasurement>(tb, slot,
                                                    std::move(done));
    m->start();
}

} // namespace gatekit::harness
