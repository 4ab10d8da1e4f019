#include "net/ipv4.hpp"

#include "net/checksum.hpp"
#include "util/assert.hpp"

namespace gatekit::net {

Bytes Ipv4Packet::serialize() const {
    Bytes out(h.header_len() + payload.size());
    const std::size_t hlen = write_ipv4_header(out, h, h.options);
    std::copy(payload.begin(), payload.end(),
              out.begin() + static_cast<long>(hlen));
    return out;
}

Ipv4Packet Ipv4Packet::parse(std::span<const std::uint8_t> data) {
    BufferReader r(data);
    const std::uint8_t ver_ihl = r.u8();
    if ((ver_ihl >> 4) != 4) throw ParseError("not IPv4");
    const std::size_t hlen = static_cast<std::size_t>(ver_ihl & 0xf) * 4;
    if (hlen < 20 || hlen > data.size())
        throw ParseError("bad IPv4 header length");

    Ipv4Packet p;
    p.h.tos = r.u8();
    const std::uint16_t total = r.u16();
    if (total < hlen || total > data.size())
        throw ParseError("bad IPv4 total length");
    p.h.id = r.u16();
    const std::uint16_t flags_frag = r.u16();
    p.h.dont_fragment = (flags_frag & 0x4000) != 0;
    p.h.more_fragments = (flags_frag & 0x2000) != 0;
    p.h.frag_offset = flags_frag & 0x1fff;
    p.h.ttl = r.u8();
    p.h.protocol = r.u8();
    p.h.stored_checksum = r.u16();
    p.h.src = Ipv4Addr{r.u32()};
    p.h.dst = Ipv4Addr{r.u32()};
    if (hlen > 20) {
        // Keep option bytes verbatim (padding included): option bodies
        // such as Record Route legitimately contain zero bytes.
        auto opts = r.bytes(hlen - 20);
        p.h.options.assign(opts.begin(), opts.end());
    }
    p.h.checksum_ok = internet_checksum(data.subspan(0, hlen)) == 0;
    const auto body = data.subspan(hlen, total - hlen);
    p.payload.assign(body.begin(), body.end());
    return p;
}

namespace {
Ipv4Addr addr_at(std::span<const std::uint8_t> data, std::size_t at) {
    if (data.size() < 20) throw ParseError("short IPv4 datagram");
    return Ipv4Addr{(std::uint32_t{data[at]} << 24) |
                    (std::uint32_t{data[at + 1]} << 16) |
                    (std::uint32_t{data[at + 2]} << 8) | data[at + 3]};
}
} // namespace

Ipv4Addr ipv4_dst(std::span<const std::uint8_t> data) {
    return addr_at(data, 16);
}

Ipv4Addr ipv4_src(std::span<const std::uint8_t> data) {
    return addr_at(data, 12);
}

Bytes Ipv4Packet::make_record_route_option(int slots) {
    GK_EXPECTS(slots >= 1 && slots <= 9);
    Bytes opt;
    opt.push_back(ipopt::kRecordRoute);
    opt.push_back(static_cast<std::uint8_t>(3 + 4 * slots)); // length
    opt.push_back(4);                                        // pointer
    opt.insert(opt.end(), static_cast<std::size_t>(4 * slots), 0);
    return opt;
}

namespace {

/// Locate the Record Route option inside raw option bytes; returns the
/// offset of its type octet or npos.
std::size_t find_record_route(std::span<const std::uint8_t> options) {
    std::size_t i = 0;
    while (i < options.size()) {
        const std::uint8_t type = options[i];
        if (type == ipopt::kEnd) break;
        if (type == ipopt::kNop) {
            ++i;
            continue;
        }
        if (i + 1 >= options.size()) break;
        const std::uint8_t len = options[i + 1];
        if (len < 2 || i + len > options.size()) break;
        if (type == ipopt::kRecordRoute) return i;
        i += len;
    }
    return static_cast<std::size_t>(-1);
}

} // namespace

std::vector<Ipv4Addr> recorded_route(std::span<const std::uint8_t> options) {
    std::vector<Ipv4Addr> out;
    const auto at = find_record_route(options);
    if (at == static_cast<std::size_t>(-1)) return out;
    const std::uint8_t len = options[at + 1];
    const std::uint8_t ptr = options[at + 2];
    // Entries occupy [4, ptr) relative to the option start.
    for (std::size_t off = 3; off + 4 <= std::min<std::size_t>(ptr - 1, len);
         off += 4) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v = (v << 8) | options[at + off + i];
        out.emplace_back(v);
    }
    return out;
}

void Ipv4Packet::record_route(Ipv4Addr router) {
    stamp_record_route(h.options, router);
}

bool stamp_record_route(std::span<std::uint8_t> options, Ipv4Addr router) {
    const auto at = find_record_route(options);
    if (at == static_cast<std::size_t>(-1)) return false;
    const std::uint8_t len = options[at + 1];
    if (len < 3) return false; // no room for a pointer
    const std::uint8_t ptr = options[at + 2];
    // The next slot spans option bytes [ptr-1, ptr+3): it must exist.
    if (ptr < 4 || ptr + 3 > len) return false; // malformed or full
    const std::size_t slot = at + ptr - 1;
    const std::uint32_t v = router.value();
    for (int i = 0; i < 4; ++i)
        options[slot + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (24 - 8 * i));
    options[at + 2] = static_cast<std::uint8_t>(ptr + 4);
    return true;
}

} // namespace gatekit::net
