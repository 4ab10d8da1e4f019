#include "l2/vlan_switch.hpp"

#include <algorithm>

#include "net/ethernet.hpp"
#include "util/assert.hpp"

namespace gatekit::l2 {

int VlanSwitch::add_access_port(std::uint16_t vlan) {
    GK_EXPECTS(vlan > 0 && vlan < 4096);
    const int index = static_cast<int>(ports_.size());
    ports_.push_back(std::make_unique<Port>(*this, index, false, vlan));
    return index;
}

int VlanSwitch::add_trunk_port() {
    const int index = static_cast<int>(ports_.size());
    ports_.push_back(std::make_unique<Port>(*this, index, true, 0));
    return index;
}

void VlanSwitch::connect(int port, sim::Link& link, sim::Link::Side side) {
    GK_EXPECTS(port >= 0 && static_cast<std::size_t>(port) < ports_.size());
    Port& p = *ports_[static_cast<std::size_t>(port)];
    p.out = sim::LinkEnd(link, side);
    link.attach(side, p);
}

std::vector<VlanSwitch::FdbEntry>::iterator
VlanSwitch::fdb_slot(std::uint16_t vlan, net::MacAddr mac) {
    using Key = std::pair<std::uint16_t, net::MacAddr>;
    return std::lower_bound(fdb_.begin(), fdb_.end(), Key{vlan, mac},
                            [](const FdbEntry& e, const Key& k) {
                                return Key{e.vlan, e.mac} < k;
                            });
}

void VlanSwitch::ingress(Port& port, sim::Frame raw) {
    const auto hdr = net::EthernetHeader::read(raw);
    if (!hdr) return;
    const bool tagged = hdr->vlan_id.has_value();

    std::uint16_t vlan = 0;
    if (port.trunk) {
        if (!tagged) return; // untagged on trunk: drop
        vlan = *hdr->vlan_id;
    } else {
        if (tagged) return; // tagged on access port: drop
        vlan = port.access_vlan;
    }

    // Learn the source, then forward.
    if (!hdr->src.is_multicast()) {
        const auto it = fdb_slot(vlan, hdr->src);
        if (it != fdb_.end() && it->vlan == vlan && it->mac == hdr->src)
            it->port = port.index;
        else
            fdb_.insert(it, {vlan, hdr->src, port.index});
    }

    if (!hdr->dst.is_multicast()) {
        const auto it = fdb_slot(vlan, hdr->dst);
        if (it != fdb_.end() && it->vlan == vlan && it->mac == hdr->dst) {
            Port& out = *ports_[static_cast<std::size_t>(it->port)];
            if (out.index != port.index && member(out, vlan))
                egress(out, vlan, tagged, std::move(raw));
            return;
        }
    }
    // Broadcast/multicast/unknown unicast: flood the VLAN. Every member
    // port but the last gets a copy; the last gets the frame itself.
    Port* last = nullptr;
    for (auto& out : ports_) {
        if (out->index == port.index || !member(*out, vlan)) continue;
        if (last != nullptr) egress(*last, vlan, tagged, raw);
        last = out.get();
    }
    if (last != nullptr) egress(*last, vlan, tagged, std::move(raw));
}

void VlanSwitch::egress(Port& port, std::uint16_t vlan, bool tagged,
                        sim::Frame frame) {
    if (!port.out.connected()) return;
    if (port.trunk) {
        // The TCI leaves with PCP/DEI zeroed, as the parse/serialize
        // round trip this replaces wrote it.
        const std::uint8_t tci[2] = {static_cast<std::uint8_t>(vlan >> 8),
                                     static_cast<std::uint8_t>(vlan)};
        if (tagged) {
            frame[14] = tci[0];
            frame[15] = tci[1];
        } else {
            const std::uint8_t tag[4] = {net::kEtherTypeVlan >> 8,
                                         net::kEtherTypeVlan & 0xff, tci[0],
                                         tci[1]};
            frame.insert(frame.begin() + 12, tag, tag + 4);
        }
    } else if (tagged) {
        frame.erase(frame.begin() + 12, frame.begin() + 16);
    }
    port.out.send(std::move(frame));
}

} // namespace gatekit::l2
