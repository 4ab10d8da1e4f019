// Trace capture: run a small mixed workload through a gateway while the
// WAN-side capture tap records every frame (the library's libpcap
// equivalent), then analyze and export the trace as a standard .pcap
// readable by Wireshark/tcpdump.
//
//   ./trace_capture [tag] [out.pcap]    (default: dl8 gw_trace.pcap)
#include <iostream>
#include <map>

#include "devices/profiles.hpp"
#include "harness/testrund.hpp"
#include "net/ethernet.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"

using namespace gatekit;

int main(int argc, char** argv) {
    const std::string tag = argc > 1 ? argv[1] : "dl8";
    const std::string path = argc > 2 ? argv[2] : "gw_trace.pcap";
    auto profile = devices::find_profile(tag);
    if (!profile) {
        std::cerr << "unknown device tag '" << tag << "'\n";
        return 1;
    }

    sim::EventLoop loop;
    harness::Testbed tb(loop);
    const int idx = tb.add_device(*profile);
    tb.start_and_wait();
    auto& slot = tb.slot(idx);
    // The WAN capture records only once armed; arming after bring-up
    // leaves the DHCP chatter out.
    slot.wan_tap.attach(*slot.wan_link);

    // Workload: a ping, a DNS lookup through the proxy, and a short TCP
    // exchange — a miniature of what a home network actually does.
    tb.client().send_icmp(slot.client_addr, slot.server_addr,
                          net::IcmpMessage::make_echo(false, 7, 1));

    stack::DnsClient dns(tb.client());
    dns.query_udp({slot.gw->lan_addr(), 53}, harness::Testbed::kTestName,
                  [](const stack::DnsClient::Result& r) {
                      std::cout << "DNS: "
                                << (r.ok ? r.addr.to_string() : r.error)
                                << "\n";
                  });

    auto& lst = tb.server().tcp_listen(8080);
    lst.set_accept_handler([](stack::TcpSocket& conn) {
        conn.on_data = [&conn](std::span<const std::uint8_t> d) {
            conn.send(net::Bytes(d.begin(), d.end()));
        };
        conn.on_remote_close = [&conn] { conn.close(); };
    });
    auto& conn = tb.client().tcp_connect(slot.client_addr, 0,
                                         {slot.server_addr, 8080});
    conn.on_established = [&] {
        conn.send({'h', 'e', 'l', 'l', 'o'});
        conn.close();
    };
    loop.run_for(std::chrono::seconds(10));

    // Analyze the capture: protocol mix as seen on the WAN wire.
    std::map<std::string, int> mix;
    for (const auto& rec : slot.wan_tap.records()) {
        try {
            const auto frame = net::EthernetFrame::parse(rec.frame);
            if (frame.ethertype == net::kEtherTypeArp) {
                ++mix["ARP"];
                continue;
            }
            const auto pkt = net::Ipv4Packet::parse(frame.payload);
            switch (pkt.h.protocol) {
            case net::proto::kIcmp: ++mix["ICMP"]; break;
            case net::proto::kTcp: ++mix["TCP"]; break;
            case net::proto::kUdp: ++mix["UDP"]; break;
            default: ++mix["other"]; break;
            }
        } catch (const net::ParseError&) {
            ++mix["malformed"];
        }
    }
    std::cout << "Captured " << slot.wan_tap.records().size()
              << " frames on the WAN link:\n";
    for (const auto& [proto, n] : mix)
        std::cout << "  " << proto << ": " << n << "\n";

    slot.wan_tap.save(path);
    std::cout << "Wrote " << path << " (open it with wireshark/tcpdump).\n";
    return 0;
}
