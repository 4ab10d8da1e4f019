#include "net/ethernet.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace gatekit::net {

Bytes EthernetFrame::serialize() const {
    BufferWriter w(payload.size() + 18);
    w.bytes(dst.octets());
    w.bytes(src.octets());
    if (vlan_id) {
        GK_EXPECTS(*vlan_id < 4096);
        w.u16(kEtherTypeVlan);
        w.u16(*vlan_id); // PCP/DEI zero
    }
    w.u16(ethertype);
    w.bytes(payload);
    return w.take();
}

EthernetFrame EthernetFrame::parse(std::span<const std::uint8_t> data) {
    BufferReader r(data);
    EthernetFrame f;
    std::array<std::uint8_t, 6> mac{};
    auto read_mac = [&r, &mac] {
        auto b = r.bytes(6);
        std::copy(b.begin(), b.end(), mac.begin());
        return MacAddr{mac};
    };
    f.dst = read_mac();
    f.src = read_mac();
    std::uint16_t type = r.u16();
    if (type == kEtherTypeVlan) {
        f.vlan_id = r.u16() & 0x0fff;
        type = r.u16();
    }
    f.ethertype = type;
    const auto rest = r.rest();
    f.payload.assign(rest.begin(), rest.end());
    return f;
}

std::optional<EthernetHeader>
EthernetHeader::read(std::span<const std::uint8_t> frame) {
    if (frame.size() < 14) return std::nullopt;
    const auto mac_at = [frame](std::size_t at) {
        std::array<std::uint8_t, 6> m{};
        std::copy_n(frame.begin() + static_cast<long>(at), 6, m.begin());
        return MacAddr{m};
    };
    const auto u16 = [frame](std::size_t at) {
        return static_cast<std::uint16_t>((frame[at] << 8) | frame[at + 1]);
    };
    EthernetHeader h;
    h.dst = mac_at(0);
    h.src = mac_at(6);
    h.ethertype = u16(12);
    if (h.ethertype == kEtherTypeVlan) {
        if (frame.size() < 18) return std::nullopt;
        h.vlan_id = static_cast<std::uint16_t>(u16(14) & 0x0fff);
        h.ethertype = u16(16);
        h.size = 18;
    }
    return h;
}

} // namespace gatekit::net
