// Ethernet II framing with optional 802.1Q VLAN tag. The testbed (paper
// Figure 1) runs each gateway's LAN and WAN side on its own VLAN; the test
// hosts use tagged subinterfaces on a trunk, which is why the tag matters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/addr.hpp"
#include "net/buffer.hpp"

namespace gatekit::net {

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;
inline constexpr std::uint16_t kEtherTypeVlan = 0x8100;

/// A full Ethernet frame (header + payload). No FCS: the simulator never
/// corrupts frames, so a trailer would be dead weight.
struct EthernetFrame {
    MacAddr dst;
    MacAddr src;
    std::optional<std::uint16_t> vlan_id; ///< 802.1Q VID when tagged
    std::uint16_t ethertype = 0;
    Bytes payload;

    Bytes serialize() const;
    static EthernetFrame parse(std::span<const std::uint8_t> data);
};

/// The header of an Ethernet wire frame, read in place: what a switch or
/// a NIC demux needs, without EthernetFrame's payload copy.
struct EthernetHeader {
    MacAddr dst;
    MacAddr src;
    std::optional<std::uint16_t> vlan_id; ///< outer 802.1Q VID when tagged
    std::uint16_t ethertype = 0;
    std::size_t size = 14; ///< header bytes; 18 when tagged

    /// Accepts what EthernetFrame::parse accepts (nullopt where it
    /// throws): 14 bytes, or 18 when the frame is tagged.
    static std::optional<EthernetHeader>
    read(std::span<const std::uint8_t> frame);
};

} // namespace gatekit::net
