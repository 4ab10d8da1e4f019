#include "net/tcp_header.hpp"

#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "util/assert.hpp"

namespace gatekit::net {

Bytes TcpSegment::serialize(Ipv4Addr src, Ipv4Addr dst) const {
    Bytes out(header_len() + payload.size());
    write_tcp(out, *this, options, payload, src, dst);
    return out;
}

TcpSegment TcpSegment::parse(std::span<const std::uint8_t> data,
                             Ipv4Addr src, Ipv4Addr dst) {
    BufferReader r(data);
    TcpSegment s;
    s.src_port = r.u16();
    s.dst_port = r.u16();
    s.seq = r.u32();
    s.ack = r.u32();
    const std::uint16_t off_flags = r.u16();
    const std::size_t hlen = static_cast<std::size_t>(off_flags >> 12) * 4;
    if (hlen < 20 || hlen > data.size())
        throw ParseError("bad TCP data offset");
    s.flags.urg = (off_flags & 0x20) != 0;
    s.flags.ack = (off_flags & 0x10) != 0;
    s.flags.psh = (off_flags & 0x08) != 0;
    s.flags.rst = (off_flags & 0x04) != 0;
    s.flags.syn = (off_flags & 0x02) != 0;
    s.flags.fin = (off_flags & 0x01) != 0;
    s.window = r.u16();
    s.stored_checksum = r.u16();
    s.urgent = r.u16();
    if (hlen > 20) {
        // Keep option bytes verbatim; option values may end in zero.
        auto opts = r.bytes(hlen - 20);
        s.options.assign(opts.begin(), opts.end());
    }
    const auto body = data.subspan(hlen);
    s.payload.assign(body.begin(), body.end());

    ChecksumAccumulator acc;
    add_pseudo_header(acc, src, dst, proto::kTcp,
                      static_cast<std::uint16_t>(data.size()));
    acc.add_bytes(data);
    s.checksum_ok = acc.finalize() == 0;
    return s;
}

void TcpSegment::add_mss_option(std::uint16_t mss) {
    options.push_back(2); // kind
    options.push_back(4); // length
    options.push_back(static_cast<std::uint8_t>(mss >> 8));
    options.push_back(static_cast<std::uint8_t>(mss));
}

void TcpSegment::add_wscale_option(std::uint8_t shift) {
    options.push_back(3); // kind
    options.push_back(3); // length
    options.push_back(shift);
}

namespace {

/// Walk the option TLVs for `kind`; returns a view of its value bytes.
std::optional<std::span<const std::uint8_t>>
find_option(std::span<const std::uint8_t> options, std::uint8_t want,
            std::uint8_t want_len) {
    std::size_t i = 0;
    while (i < options.size()) {
        const std::uint8_t kind = options[i];
        if (kind == 0) break; // end of options
        if (kind == 1) {      // NOP
            ++i;
            continue;
        }
        if (i + 1 >= options.size()) break;
        const std::uint8_t len = options[i + 1];
        if (len < 2 || i + len > options.size()) break;
        if (kind == want && len == want_len)
            return options.subspan(i + 2, len - 2u);
        i += len;
    }
    return std::nullopt;
}

std::optional<std::uint16_t> mss_in(std::span<const std::uint8_t> options) {
    if (auto v = find_option(options, 2, 4))
        return static_cast<std::uint16_t>(((*v)[0] << 8) | (*v)[1]);
    return std::nullopt;
}

std::optional<std::uint8_t> wscale_in(std::span<const std::uint8_t> options) {
    if (auto v = find_option(options, 3, 3)) return (*v)[0];
    return std::nullopt;
}

} // namespace

std::optional<std::uint16_t> TcpSegment::mss_option() const {
    return mss_in(options);
}

std::optional<std::uint8_t> TcpSegment::wscale_option() const {
    return wscale_in(options);
}

std::optional<std::uint16_t> TcpSegmentView::mss_option() const {
    return mss_in(options);
}

std::optional<std::uint8_t> TcpSegmentView::wscale_option() const {
    return wscale_in(options);
}

std::optional<TcpSegmentView>
TcpSegmentView::parse(std::span<const std::uint8_t> data, Ipv4Addr src,
                      Ipv4Addr dst) {
    if (data.size() < 20) return std::nullopt;
    const std::uint8_t* d = data.data();
    const auto u16 = [d](std::size_t at) {
        return static_cast<std::uint16_t>((d[at] << 8) | d[at + 1]);
    };
    const auto u32 = [&u16](std::size_t at) {
        return (std::uint32_t{u16(at)} << 16) | u16(at + 2);
    };
    const std::size_t hlen = static_cast<std::size_t>(d[12] >> 4) * 4;
    if (hlen < 20 || hlen > data.size()) return std::nullopt;
    TcpSegmentView s;
    s.src_port = u16(0);
    s.dst_port = u16(2);
    s.seq = u32(4);
    s.ack = u32(8);
    const std::uint8_t f = d[13];
    s.flags.urg = (f & 0x20) != 0;
    s.flags.ack = (f & 0x10) != 0;
    s.flags.psh = (f & 0x08) != 0;
    s.flags.rst = (f & 0x04) != 0;
    s.flags.syn = (f & 0x02) != 0;
    s.flags.fin = (f & 0x01) != 0;
    s.window = u16(14);
    s.options = data.subspan(20, hlen - 20);
    s.payload = data.subspan(hlen);

    ChecksumAccumulator acc;
    add_pseudo_header(acc, src, dst, proto::kTcp,
                      static_cast<std::uint16_t>(data.size()));
    acc.add_bytes(data);
    s.checksum_ok = acc.finalize() == 0;
    return s;
}

std::string TcpSegment::flag_string() const {
    std::string out;
    auto add = [&out](bool on, const char* name) {
        if (!on) return;
        if (!out.empty()) out += '|';
        out += name;
    };
    add(flags.syn, "SYN");
    add(flags.ack, "ACK");
    add(flags.fin, "FIN");
    add(flags.rst, "RST");
    add(flags.psh, "PSH");
    add(flags.urg, "URG");
    if (out.empty()) out = "-";
    return out;
}

} // namespace gatekit::net
