#include "net/udp.hpp"

#include <algorithm>

#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "util/assert.hpp"

namespace gatekit::net {

void write_udp(std::span<std::uint8_t> out, std::uint16_t src_port,
               std::uint16_t dst_port, std::span<const std::uint8_t> payload,
               Ipv4Addr src, Ipv4Addr dst) {
    const std::size_t total = 8 + payload.size();
    GK_EXPECTS(total <= 0xffff && out.size() == total);
    std::uint8_t* p = out.data();
    store_u16(p, src_port);
    store_u16(p + 2, dst_port);
    store_u16(p + 4, static_cast<std::uint16_t>(total));
    store_u16(p + 6, 0); // checksum placeholder
    std::copy(payload.begin(), payload.end(), p + 8);

    ChecksumAccumulator acc;
    add_pseudo_header(acc, src, dst, proto::kUdp,
                      static_cast<std::uint16_t>(total));
    acc.add_bytes(out);
    std::uint16_t ck = acc.finalize();
    if (ck == 0) ck = 0xffff; // RFC 768: 0 means "no checksum"
    store_u16(p + 6, ck);
}

Bytes UdpDatagram::serialize(Ipv4Addr src, Ipv4Addr dst) const {
    Bytes out(8 + payload.size());
    write_udp(out, src_port, dst_port, payload, src, dst);
    return out;
}

UdpDatagram UdpDatagram::parse(std::span<const std::uint8_t> data,
                               Ipv4Addr src, Ipv4Addr dst) {
    BufferReader r(data);
    UdpDatagram d;
    d.src_port = r.u16();
    d.dst_port = r.u16();
    const std::uint16_t len = r.u16();
    if (len < 8 || len > data.size()) throw ParseError("bad UDP length");
    d.stored_checksum = r.u16();
    const auto body = data.subspan(8, len - 8);
    d.payload.assign(body.begin(), body.end());
    if (d.stored_checksum == 0) {
        d.checksum_ok = true; // checksum disabled by sender
    } else {
        ChecksumAccumulator acc;
        add_pseudo_header(acc, src, dst, proto::kUdp, len);
        acc.add_bytes(data.subspan(0, len));
        d.checksum_ok = acc.finalize() == 0;
    }
    return d;
}

} // namespace gatekit::net
