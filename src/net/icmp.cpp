#include "net/icmp.hpp"

#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "util/assert.hpp"

namespace gatekit::net {

Bytes IcmpMessage::serialize() const {
    BufferWriter w(8 + payload.size());
    w.u8(static_cast<std::uint8_t>(type));
    w.u8(code);
    w.u16(0); // checksum placeholder
    w.u32(rest);
    w.bytes(payload);
    auto out = w.take();
    refresh_icmp_checksum(out);
    return out;
}

void refresh_icmp_checksum(std::span<std::uint8_t> message) {
    GK_EXPECTS(message.size() >= 4);
    message[2] = message[3] = 0;
    const std::uint16_t ck = internet_checksum(message);
    message[2] = static_cast<std::uint8_t>(ck >> 8);
    message[3] = static_cast<std::uint8_t>(ck);
}

IcmpMessage IcmpMessage::parse(std::span<const std::uint8_t> data) {
    BufferReader r(data);
    IcmpMessage m;
    m.type = static_cast<IcmpType>(r.u8());
    m.code = r.u8();
    m.stored_checksum = r.u16();
    m.rest = r.u32();
    const auto body = r.rest();
    m.payload.assign(body.begin(), body.end());
    m.checksum_ok = internet_checksum(data) == 0;
    return m;
}

IcmpMessage IcmpMessage::make_echo(bool reply, std::uint16_t id,
                                   std::uint16_t seq, Bytes data) {
    IcmpMessage m;
    m.type = reply ? IcmpType::EchoReply : IcmpType::Echo;
    m.rest = (static_cast<std::uint32_t>(id) << 16) | seq;
    m.payload = std::move(data);
    return m;
}

IcmpMessage IcmpMessage::make_error(
    IcmpType type, std::uint8_t code, std::uint32_t rest,
    std::span<const std::uint8_t> original_datagram) {
    GK_EXPECTS(type != IcmpType::Echo && type != IcmpType::EchoReply);
    IcmpMessage m;
    m.type = type;
    m.code = code;
    m.rest = rest;
    // Quote the original IP header plus the first 8 payload bytes.
    std::size_t quote = original_datagram.size();
    if (quote >= 20) {
        const std::size_t ihl =
            static_cast<std::size_t>(original_datagram[0] & 0xf) * 4;
        quote = std::min(quote, ihl + 8);
    }
    m.payload.assign(original_datagram.begin(),
                     original_datagram.begin() + static_cast<long>(quote));
    return m;
}

} // namespace gatekit::net
