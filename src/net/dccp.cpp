#include "net/dccp.hpp"

#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "util/assert.hpp"

namespace gatekit::net {

namespace {

std::size_t header_words(const DccpPacket& p) {
    // Generic header (16 bytes with X=1) + ack area (8) + service/reset (4).
    std::size_t bytes = 16;
    if (p.has_ack_area()) bytes += 8;
    if (p.type == DccpType::Request || p.type == DccpType::Response ||
        p.type == DccpType::Reset)
        bytes += 4;
    return bytes / 4;
}

} // namespace

std::size_t DccpPacket::wire_len() const {
    return header_words(*this) * 4 + payload.size();
}

Bytes DccpPacket::serialize(Ipv4Addr src, Ipv4Addr dst) const {
    const std::size_t offset_words = header_words(*this);
    BufferWriter w(wire_len());
    w.u16(src_port);
    w.u16(dst_port);
    w.u8(static_cast<std::uint8_t>(offset_words));
    w.u8(static_cast<std::uint8_t>(ccval << 4)); // CsCov = 0: full coverage
    w.u16(0);                                    // checksum placeholder
    // res(3) | type(4) | X(1)=1
    w.u8(static_cast<std::uint8_t>((static_cast<std::uint8_t>(type) << 1) |
                                   0x01));
    w.u8(0); // reserved (high 8 bits of 56-bit field unused with 48-bit seq)
    w.u48(seq);
    if (has_ack_area()) {
        GK_EXPECTS(ack_seq.has_value());
        w.u16(0); // reserved
        w.u48(*ack_seq);
    }
    if (type == DccpType::Request || type == DccpType::Response)
        w.u32(service_code);
    if (type == DccpType::Reset)
        w.u32(static_cast<std::uint32_t>(reset_code) << 24);
    w.bytes(payload);

    ChecksumAccumulator acc;
    add_pseudo_header(acc, src, dst, proto::kDccp,
                      static_cast<std::uint16_t>(w.size()));
    acc.add_bytes(w.view());
    w.patch_u16(6, acc.finalize());
    return w.take();
}

DccpPacket DccpPacket::parse(std::span<const std::uint8_t> data,
                             Ipv4Addr src, Ipv4Addr dst) {
    BufferReader r(data);
    DccpPacket p;
    p.src_port = r.u16();
    p.dst_port = r.u16();
    const std::uint8_t offset_words = r.u8();
    if (static_cast<std::size_t>(offset_words) * 4 > data.size() ||
        offset_words < 4)
        throw ParseError("bad DCCP data offset");
    p.ccval = static_cast<std::uint8_t>(r.u8() >> 4);
    p.stored_checksum = r.u16();
    const std::uint8_t type_x = r.u8();
    if ((type_x & 0x01) == 0)
        throw ParseError("short DCCP sequence numbers unsupported");
    p.type = static_cast<DccpType>((type_x >> 1) & 0x0f);
    r.skip(1); // reserved
    p.seq = r.u48();
    if (p.has_ack_area()) {
        r.skip(2);
        p.ack_seq = r.u48();
    }
    if (p.type == DccpType::Request || p.type == DccpType::Response)
        p.service_code = r.u32();
    if (p.type == DccpType::Reset)
        p.reset_code = static_cast<std::uint8_t>(r.u32() >> 24);
    r.skip(static_cast<std::size_t>(offset_words) * 4 - r.position());
    const auto body = r.rest();
    p.payload.assign(body.begin(), body.end());

    ChecksumAccumulator acc;
    add_pseudo_header(acc, src, dst, proto::kDccp,
                      static_cast<std::uint16_t>(data.size()));
    acc.add_bytes(data);
    p.checksum_ok = acc.finalize() == 0;
    return p;
}

} // namespace gatekit::net
