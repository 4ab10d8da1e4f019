// The paper's Figure 1 testbed: a test server and test client (Linux
// hosts with one physical NIC each, carrying per-device VLAN
// subinterfaces over trunk links), two VLAN switches, and N home gateways
// wired WAN-side to VLAN 1000+n / LAN-side to VLAN 2000+n. The test
// server runs a per-VLAN DHCP service and the global DNS server; each
// gateway leases its WAN address, then serves DHCP and proxies DNS toward
// the test client.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "gateway/cgn.hpp"
#include "gateway/home_gateway.hpp"
#include "l2/vlan_switch.hpp"
#include "obs/obs.hpp"
#include "pcap/capture_tap.hpp"
#include "stack/dhcp_service.hpp"
#include "stack/dns_service.hpp"
#include "stack/host.hpp"

namespace gatekit::harness {

class Testbed {
public:
    struct DeviceSlot {
        int index = 0; ///< 1-based device number n
        std::unique_ptr<gateway::HomeGateway> gw;
        std::unique_ptr<sim::Link> lan_link; ///< gw LAN <-> LAN switch
        std::unique_ptr<sim::Link> wan_link; ///< gw WAN <-> WAN switch
        stack::Iface* client_if = nullptr;   ///< test client's vlan-if
        stack::Iface* server_if = nullptr;   ///< test server's vlan-if
        std::unique_ptr<stack::DhcpServer> wan_dhcp; ///< test-server side
        std::unique_ptr<stack::DhcpClient> client_dhcp;
        net::Ipv4Addr server_addr; ///< 10.0.n.1
        net::Ipv4Addr client_addr; ///< leased from the gateway
        net::Ipv4Addr gw_wan_addr; ///< leased from the test server
        /// Capture on the gateway's WAN link. It copies every frame, so
        /// it records only once attached to wan_link. Two users arm it:
        /// attach_observability when its tracer has a sink (trace events
        /// carry frame refs into it), and the transport-support probe.
        /// Anything else that reads it must arm it too.
        pcap::CaptureTap wan_tap;
        /// CGN group (0-based) this gateway's WAN sits behind, or -1 for
        /// a direct (single-NAT) uplink to the test server.
        int cgn_group = -1;
        bool ready = false;
    };

    /// One carrier-grade NAT and its access network. The CGN's WAN side
    /// looks exactly like a home gateway's to the test server (VLAN
    /// 1000+c, subnet 10.0.c.0/24, DHCP + routing from the server); its
    /// access side is a private 100.64.c.0/24 network on VLAN 3000+c
    /// where member gateways lease their WAN addresses.
    struct CgnGroup {
        int index = 0; ///< 1-based number c (shares the device numbering)
        std::unique_ptr<gateway::CgnGateway> cgn;
        std::unique_ptr<sim::Link> access_link; ///< access if <-> WAN switch
        std::unique_ptr<sim::Link> wan_link;    ///< wan if <-> WAN switch
        stack::Iface* server_if = nullptr;      ///< test server's vlan-if
        std::unique_ptr<stack::DhcpServer> wan_dhcp; ///< test-server side
        net::Ipv4Addr server_addr;   ///< 10.0.c.1
        net::Ipv4Addr external_addr; ///< leased from the test server
        std::vector<int> members;    ///< 0-based slot indexes behind it
        bool ready = false;
    };

    explicit Testbed(sim::EventLoop& loop);

    Testbed(const Testbed&) = delete;
    Testbed& operator=(const Testbed&) = delete;

    /// Add a gateway with the given behavior profile; returns its slot
    /// index (0-based). Must be called before start(). Throws
    /// std::invalid_argument when the profile fails validate().
    int add_device(gateway::DeviceProfile profile);

    /// Add a gateway under an explicit 1-based device number: addressing,
    /// VLANs, MACs, and the "tag#n" label all derive from `number`
    /// exactly as if the device sat at slot number-1 of a larger roster.
    /// This is what lets a sharded campaign build a one-device testbed
    /// whose wire traffic is byte-identical to the device's slice of a
    /// full-roster bring-up.
    int add_device(gateway::DeviceProfile profile, int number);

    /// Add a carrier-grade NAT; returns its group index (0-based). The
    /// CGN takes the next device number c (its uplink occupies the same
    /// VLAN/subnet/DHCP resources a home gateway's would), and serves
    /// the 100.64.c.0/24 access network on VLAN 3000+c. `cgn` carries
    /// the engine knobs; addressing fields are filled in here.
    int add_cgn_group(gateway::CgnConfig cgn = {});

    /// Add a home gateway whose WAN side sits on `group`'s access
    /// network instead of a direct test-server VLAN: NAT444. The slot
    /// keeps its own device number (LAN addressing, client vlan-if) but
    /// leases its WAN address from the CGN, and slot.server_addr points
    /// at the group's test-server interface so probes traverse the
    /// whole chain. Returns the slot index (0-based).
    int add_device_behind_cgn(gateway::DeviceProfile profile, int group);

    /// Bring everything up (gateway WAN DHCP, then client-side DHCP per
    /// VLAN). CGN groups come up first; their member gateways start once
    /// the access network is serving leases.
    /// `on_ready` fires when every device slot is operational.
    void start(std::function<void()> on_ready);

    /// Convenience: start() and run the loop until ready (bounded wait).
    /// Throws on bring-up failure.
    void start_and_wait();

    bool all_ready() const;

    stack::Host& client() { return client_; }
    stack::Host& server() { return server_; }
    sim::Link& client_trunk() { return client_trunk_; }
    sim::Link& server_trunk() { return server_trunk_; }
    stack::DnsServer& dns() { return *dns_; }
    sim::EventLoop& loop() { return loop_; }

    std::size_t device_count() const { return slots_.size(); }
    DeviceSlot& slot(int i) { return *slots_.at(static_cast<std::size_t>(i)); }
    std::size_t cgn_count() const { return cgn_groups_.size(); }
    CgnGroup& cgn_group(int i) {
        return *cgn_groups_.at(static_cast<std::size_t>(i));
    }

    /// Attach an observability session (owned by the caller, must outlive
    /// the testbed): binds every device slot created so far and any added
    /// later — gateways, test hosts, and the per-slot links. Add trace
    /// sinks before attaching: only a tracer with a sink arms each slot's
    /// WAN capture, whose frame indices the link's trace events carry.
    void attach_observability(obs::Observability* obs);
    obs::Observability* observability() { return obs_; }

    /// Metrics/trace label for a slot: "<profile tag>#<n>".
    static std::string device_label(const DeviceSlot& slot);

    /// The DNS name the global server resolves (paper: hiit.fi zone).
    static constexpr const char* kTestName = "server.hiit.fi";
    /// A name with a DNSSEC-sized (~1100 byte) TXT answer.
    static constexpr const char* kBigName = "big.hiit.fi";
    static constexpr std::size_t kBigAnswerSize = 1100;

private:
    void maybe_ready();
    /// Validation + LAN side + gateway + WAN link; the caller attaches
    /// the WAN link to its segment (server VLAN or CGN access network).
    std::unique_ptr<DeviceSlot> make_slot(gateway::DeviceProfile profile,
                                          int number);
    /// The test-server side of device number n's direct uplink, for a
    /// DeviceSlot or a CgnGroup: `o.wan_link`'s far end on a VLAN
    /// 1000+n access port, the server vlan-if 10.0.n.1/24 and its route,
    /// the server-side DHCP service and the kTestName record.
    template <class Owner> void add_uplink(Owner& o, int n);
    void start_slot(DeviceSlot& slot);
    void bind_slot_observability(DeviceSlot& slot);

    sim::EventLoop& loop_;
    l2::VlanSwitch lan_switch_;
    l2::VlanSwitch wan_switch_;
    stack::Host client_;
    stack::Host server_;
    sim::Link client_trunk_;
    sim::Link server_trunk_;
    std::unique_ptr<stack::DnsServer> dns_;
    std::vector<std::unique_ptr<DeviceSlot>> slots_;
    std::vector<std::unique_ptr<CgnGroup>> cgn_groups_;
    /// Next auto-assigned device number; CGN uplinks and gateways draw
    /// from the same sequence (identical to slots_.size()+1 until the
    /// first CGN group, so existing single-NAT artifacts are unchanged).
    int next_number_ = 1;
    std::function<void()> on_ready_;
    bool started_ = false;
    obs::Observability* obs_ = nullptr;
};

} // namespace gatekit::harness
