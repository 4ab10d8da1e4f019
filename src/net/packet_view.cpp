#include "net/packet_view.hpp"

#include "net/checksum.hpp"
#include "util/assert.hpp"

namespace gatekit::net {

std::optional<PacketView> PacketView::parse(
    std::span<std::uint8_t> datagram) {
    if (datagram.size() < 20) return std::nullopt;
    std::uint8_t* d = datagram.data();
    if ((d[0] >> 4) != 4) return std::nullopt;
    const std::size_t ihl = static_cast<std::size_t>(d[0] & 0xf) * 4;
    if (ihl < 20 || ihl > datagram.size()) return std::nullopt;
    const std::uint16_t total =
        static_cast<std::uint16_t>((d[2] << 8) | d[3]);
    if (total < ihl || total > datagram.size()) return std::nullopt;

    PacketView v;
    v.data_ = d;
    v.total_ = total;
    v.ihl_ = static_cast<std::uint8_t>(ihl);
    v.proto_ = d[9];
    const std::uint16_t flags_frag =
        static_cast<std::uint16_t>((d[6] << 8) | d[7]);
    v.fragment_ = (flags_frag & 0x3fff) != 0; // frag offset or MF set
    v.src_ = Ipv4Addr{(std::uint32_t{d[12]} << 24) |
                      (std::uint32_t{d[13]} << 16) |
                      (std::uint32_t{d[14]} << 8) | d[15]};
    v.dst_ = Ipv4Addr{(std::uint32_t{d[16]} << 24) |
                      (std::uint32_t{d[17]} << 16) |
                      (std::uint32_t{d[18]} << 8) | d[19]};

    const std::size_t l4_len = total - ihl;
    if (!v.fragment_ && v.proto_ == proto::kUdp && l4_len >= 8) {
        // The UDP length field must span the IP payload exactly; a
        // datagram that disagrees with its IP header has no sound
        // geometry to translate.
        const std::uint16_t udp_len =
            static_cast<std::uint16_t>((d[ihl + 4] << 8) | d[ihl + 5]);
        if (udp_len == l4_len) {
            v.has_l4_ = true;
            v.sport_ =
                static_cast<std::uint16_t>((d[ihl] << 8) | d[ihl + 1]);
            v.dport_ =
                static_cast<std::uint16_t>((d[ihl + 2] << 8) | d[ihl + 3]);
            const std::uint16_t ck =
                static_cast<std::uint16_t>((d[ihl + 6] << 8) | d[ihl + 7]);
            if (ck != 0) // zero: disabled by the sender, stays disabled
                v.l4_ck_off_ = static_cast<std::uint16_t>(ihl + 6);
        }
    } else if (!v.fragment_ && v.proto_ == proto::kTcp && l4_len >= 20) {
        const std::size_t doff =
            static_cast<std::size_t>(d[ihl + 12] >> 4) * 4;
        if (doff >= 20 && doff <= l4_len) {
            v.has_l4_ = true;
            v.sport_ =
                static_cast<std::uint16_t>((d[ihl] << 8) | d[ihl + 1]);
            v.dport_ =
                static_cast<std::uint16_t>((d[ihl + 2] << 8) | d[ihl + 3]);
            v.l4_ck_off_ = static_cast<std::uint16_t>(ihl + 16);
        }
    }
    return v;
}

PacketView PacketView::of(std::span<std::uint8_t> datagram) {
    auto v = parse(datagram);
    GK_ASSERT(v.has_value());
    return *v;
}

void PacketView::ip_fixup16(std::size_t off, std::uint16_t old_w,
                            std::uint16_t new_w) {
    write16(off, new_w);
    write16(10, checksum_update16(read16(10), old_w, new_w));
}

void PacketView::ip_fixup32(std::size_t off, std::uint32_t old_w,
                            std::uint32_t new_w) {
    write16(off, static_cast<std::uint16_t>(new_w >> 16));
    write16(off + 2, static_cast<std::uint16_t>(new_w));
    write16(10, checksum_update32(read16(10), old_w, new_w));
}

void PacketView::l4_fixup16(std::uint16_t old_w, std::uint16_t new_w) {
    if (l4_ck_off_ == 0) return;
    std::uint16_t ck = checksum_update16(read16(l4_ck_off_), old_w, new_w);
    // UDP transmits a computed zero as 0xffff (zero means "disabled");
    // the incremental form must land on the same representative.
    if (ck == 0 && proto_ == proto::kUdp) ck = 0xffff;
    write16(l4_ck_off_, ck);
}

void PacketView::l4_fixup32(std::uint32_t old_w, std::uint32_t new_w) {
    if (l4_ck_off_ == 0) return;
    std::uint16_t ck = checksum_update32(read16(l4_ck_off_), old_w, new_w);
    if (ck == 0 && proto_ == proto::kUdp) ck = 0xffff;
    write16(l4_ck_off_, ck);
}

void PacketView::set_src(Ipv4Addr a) {
    const std::uint32_t old_w = src_.value();
    ip_fixup32(12, old_w, a.value());
    l4_fixup32(old_w, a.value()); // pseudo-header coverage
    src_ = a;
}

void PacketView::set_dst(Ipv4Addr a) {
    const std::uint32_t old_w = dst_.value();
    ip_fixup32(16, old_w, a.value());
    l4_fixup32(old_w, a.value());
    dst_ = a;
}

void PacketView::set_src_port(std::uint16_t p) {
    write16(ihl_, p);
    l4_fixup16(sport_, p);
    sport_ = p;
}

void PacketView::set_dst_port(std::uint16_t p) {
    write16(ihl_ + 2u, p);
    l4_fixup16(dport_, p);
    dport_ = p;
}

void PacketView::decrement_ttl() {
    const std::uint16_t old_w = read16(8);
    data_[8] = static_cast<std::uint8_t>(data_[8] - 1);
    write16(10, checksum_update16(read16(10), old_w, read16(8)));
}

void PacketView::record_route(Ipv4Addr router) {
    if (!stamp_record_route({data_ + 20, ihl_ - 20u}, router)) return;
    write16(10, 0);
    write16(10, internet_checksum({data_, ihl_}));
}

} // namespace gatekit::net
