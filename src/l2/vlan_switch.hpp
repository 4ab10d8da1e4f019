// 802.1Q-aware learning switch, standing in for the paper's HP-2524s:
// access ports (one VLAN, untagged) and trunk ports (all VLANs, tagged).
// Frames are forwarded as the same buffer, read and retagged in place;
// only a flood copies, once per extra egress port.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/addr.hpp"
#include "sim/link.hpp"

namespace gatekit::l2 {

class VlanSwitch {
public:
    explicit VlanSwitch(sim::EventLoop& loop) : loop_(loop) {}

    VlanSwitch(const VlanSwitch&) = delete;
    VlanSwitch& operator=(const VlanSwitch&) = delete;

    /// Create an access port for `vlan`; frames on the wire are untagged.
    int add_access_port(std::uint16_t vlan);
    /// Create a trunk port; all frames on the wire carry VLAN tags.
    int add_trunk_port();

    /// Attach a port to one side of a link.
    void connect(int port, sim::Link& link, sim::Link::Side side);

    std::size_t port_count() const { return ports_.size(); }
    std::size_t mac_table_size() const { return fdb_.size(); }

private:
    struct Port : sim::FrameSink {
        Port(VlanSwitch& sw, int index, bool trunk, std::uint16_t vlan)
            : owner(sw), index(index), trunk(trunk), access_vlan(vlan) {}
        void frame_in(sim::Frame frame) override {
            owner.ingress(*this, std::move(frame));
        }
        VlanSwitch& owner;
        int index;
        bool trunk;
        std::uint16_t access_vlan; ///< meaningful for access ports only
        sim::LinkEnd out;
    };

    void ingress(Port& port, sim::Frame raw);
    /// Send `frame` out of `port`, rewriting, inserting or stripping
    /// its outer 802.1Q tag (present when `tagged`) for the port's mode.
    void egress(Port& port, std::uint16_t vlan, bool tagged,
                sim::Frame frame);
    bool member(const Port& port, std::uint16_t vlan) const {
        return port.trunk || port.access_vlan == vlan;
    }

    /// One learned address: where (vlan, mac) was last seen.
    struct FdbEntry {
        std::uint16_t vlan;
        net::MacAddr mac;
        int port;
    };
    /// The entry for (vlan, mac), or where it would go.
    std::vector<FdbEntry>::iterator fdb_slot(std::uint16_t vlan,
                                             net::MacAddr mac);

    sim::EventLoop& loop_;
    std::vector<std::unique_ptr<Port>> ports_;
    /// The MAC table, flat and sorted by (vlan, mac): every ingress looks
    /// up its source and its destination, and learning a new address is
    /// rare.
    std::vector<FdbEntry> fdb_;
};

} // namespace gatekit::l2
