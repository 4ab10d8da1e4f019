#include "gateway/nat_engine.hpp"

#include "net/checksum.hpp"
#include "net/tcp_header.hpp"
#include "util/assert.hpp"

namespace gatekit::gateway {

namespace {
constexpr sim::Duration kIcmpQueryTimeout = std::chrono::seconds(60);
// Side-table capacity caps. Unlike the UDP/TCP binding tables (bounded
// per profile), the ICMP-query and IP-only maps used to grow without
// limit under a flood of distinct query ids or remote addresses. Real
// devices bound this state; the caps are far above anything the paper's
// measurements create, so only hostile workloads ever reach them.
constexpr std::size_t kMaxIcmpQueries = 1024;
constexpr std::size_t kMaxIpOnly = 1024;

/// Drop every expired entry; both side tables prune this way when the
/// cap is reached (the hot paths never pay the scan).
template <typename Map>
void prune_expired(Map& m, sim::TimePoint now) {
    for (auto it = m.begin(); it != m.end();) {
        if (now >= it->second.expires_at)
            it = m.erase(it);
        else
            ++it;
    }
}
} // namespace

NatEngine::NatEngine(sim::EventLoop& loop, const DeviceProfile& profile)
    : loop_(loop), profile_(profile), udp_(loop, profile, net::proto::kUdp),
      tcp_(loop, profile, net::proto::kTcp) {}

net::Ipv4Packet NatEngine::translated_header(const net::Ipv4Packet& pkt,
                                             net::Ipv4Addr new_src,
                                             net::Ipv4Addr new_dst) const {
    net::Ipv4Packet out;
    out.h = pkt.h;
    out.h.src = new_src;
    out.h.dst = new_dst;
    if (profile_.decrement_ttl)
        out.h.ttl = static_cast<std::uint8_t>(pkt.h.ttl - 1);
    if (profile_.honor_record_route) out.record_route(wan_addr_);
    return out;
}

void NatEngine::finish(net::PacketView& v) const {
    if (profile_.decrement_ttl) v.decrement_ttl();
    if (profile_.honor_record_route && v.has_options())
        v.record_route(wan_addr_);
}

sim::Duration NatEngine::udp_timeout_for(const Binding& b,
                                         bool inbound_packet,
                                         std::uint16_t service_port) const {
    const auto granted = [this](sim::Duration d) {
        obs::observe(m_to_granted_ns_, static_cast<double>(d.count()));
        return d;
    };
    auto it = profile_.udp.per_service.find(service_port);
    if (it != profile_.udp.per_service.end()) {
        obs::inc(m_to_per_service_);
        return granted(it->second);
    }
    if (inbound_packet) {
        obs::inc(m_to_inbound_);
        return granted(profile_.udp.inbound_refresh);
    }
    if (b.confirmed) {
        obs::inc(m_to_outbound_);
        return granted(profile_.udp.outbound_refresh);
    }
    obs::inc(m_to_initial_);
    return granted(profile_.udp.initial);
}

void NatEngine::bind_observability(obs::MetricsRegistry& reg,
                                   const std::string& device) {
    udp_.bind_observability(reg, device);
    tcp_.bind_observability(reg, device);
    obs::Labels labels{{"device", device}};
    m_drop_capacity_ = reg.counter("nat.drop.capacity", labels);
    m_drop_policy_ = reg.counter("nat.drop.policy", labels);
    m_icmp_translated_ = reg.counter("nat.icmp.translated", labels);
    m_icmp_dropped_ = reg.counter("nat.icmp.dropped", labels);
    m_icmp_rate_limited_ = reg.counter("nat.icmp.rate_limited", labels);
    m_icmp_quote_rejected_ = reg.counter("nat.icmp.quote_rejected", labels);
    m_icmp_teardown_ = reg.counter("nat.icmp.teardown", labels);
    m_wan_syn_dropped_ = reg.counter("nat.wan_syn.dropped", labels);
    m_wan_syn_tarpitted_ = reg.counter("nat.wan_syn.tarpitted", labels);
    m_wan_stray_dropped_ = reg.counter("nat.wan_syn.stray_dropped", labels);
    m_to_per_service_ = reg.counter("nat.timeout.per_service", labels);
    m_to_inbound_ = reg.counter("nat.timeout.inbound_refresh", labels);
    m_to_outbound_ = reg.counter("nat.timeout.outbound_refresh", labels);
    m_to_initial_ = reg.counter("nat.timeout.initial", labels);
    // Distribution of the UDP timeout actually granted per refresh, in
    // ns — the policy counters say which rule fired, the sketch says
    // what the population of granted lifetimes looks like.
    m_to_granted_ns_ = reg.log_histogram("nat.timeout.granted_ns", labels);
}

std::optional<net::Bytes> NatEngine::outbound(const net::Ipv4Packet& pkt) {
    GK_EXPECTS(configured());
    if (profile_.decrement_ttl && pkt.h.ttl <= 1) return std::nullopt;
    switch (pkt.h.protocol) {
    case net::proto::kUdp:
    case net::proto::kTcp: {
        net::Bytes bytes = pkt.serialize();
        auto v = net::PacketView::of(bytes);
        if (outbound(v) != Verdict::kForwarded) return std::nullopt;
        return bytes;
    }
    case net::proto::kIcmp:
        return outbound_icmp(pkt);
    default:
        return outbound_unknown(pkt);
    }
}

NatEngine::Verdict NatEngine::outbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    GK_EXPECTS(v.protocol() == net::proto::kUdp ||
               v.protocol() == net::proto::kTcp);
    if (profile_.decrement_ttl && v.ttl() <= 1) return Verdict::kDropped;
    if (!v.has_l4()) { // a fragment, or geometry the view rejects
        ++stats_.dropped_malformed;
        return Verdict::kDropped;
    }
    const bool udp = v.protocol() == net::proto::kUdp;
    BindingTable& table = udp ? udp_ : tcp_;
    const FlowKey key{v.protocol(),
                      {v.src(), v.src_port()},
                      {v.dst(), v.dst_port()}};
    Binding* b = table.find_or_create_outbound(key);
    if (b == nullptr) {
        ++stats_.dropped_capacity;
        obs::inc(m_drop_capacity_);
        return Verdict::kDropped;
    }
    const std::uint8_t flags = v.tcp_flags();
    if (udp) {
        ++b->packets_out;
        if (profile_.udp.outbound_refreshes || b->packets_out == 1)
            udp_.refresh(*b, udp_timeout_for(*b, false, key.remote.port));
    } else {
        const bool syn = (flags & 0x02) != 0;
        if (syn && (flags & 0x10) == 0)
            tcp_.set_expiry(*b,
                            loop_.now() + profile_.tcp_transitory_timeout);
        ++b->packets_out;
        if (b->packets_in > 0 && !syn) b->established = true;
        refresh_tcp(*b);
        if ((flags & 0x01) != 0) b->fin_out = true;
    }
    v.set_src(wan_addr_);
    v.set_src_port(b->external_port);
    finish(v);
    if (!udp) close_tcp(*b, flags);
    return Verdict::kForwarded;
}

NatEngine::Verdict NatEngine::inbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    GK_EXPECTS(v.protocol() == net::proto::kUdp ||
               v.protocol() == net::proto::kTcp);
    if (!v.has_l4()) return Verdict::kNotOurs;
    const bool udp = v.protocol() == net::proto::kUdp;
    BindingTable& table = udp ? udp_ : tcp_;
    const std::uint8_t flags = v.tcp_flags();
    // Unsolicited-SYN policy: Drop/Tarpit devices swallow any inbound
    // plain SYN before it can touch binding state or draw a gateway-
    // local RST, and additionally track the handshake strictly: until a
    // binding has seen an inbound SYN-ACK (or is established), nothing
    // else from the WAN is accepted on it. Forward (every calibrated
    // device) takes neither branch.
    const bool strict =
        !udp && profile_.wan_syn_policy != WanSynPolicy::Forward;
    if (strict && (flags & 0x12) == 0x02) {
        if (profile_.wan_syn_policy == WanSynPolicy::Tarpit) {
            ++stats_.wan_syn_tarpitted;
            obs::inc(m_wan_syn_tarpitted_);
        } else {
            ++stats_.wan_syn_dropped;
            obs::inc(m_wan_syn_dropped_);
        }
        return Verdict::kDropped;
    }
    Binding* b = table.find_inbound(v.dst_port(), {v.src(), v.src_port()});
    if (b == nullptr) return Verdict::kNotOurs; // maybe gateway-local
    if (strict) {
        const bool synack = (flags & 0x12) == 0x12;
        if (!b->established && !b->synack_in && !synack) {
            ++stats_.wan_stray_dropped;
            obs::inc(m_wan_stray_dropped_);
            return Verdict::kDropped;
        }
        if (synack) b->synack_in = true;
    }
    ++b->packets_in;
    if (udp) {
        const bool first_inbound = !b->confirmed;
        b->confirmed = true;
        if (profile_.udp.inbound_refreshes || first_inbound)
            udp_.refresh(*b, udp_timeout_for(*b, true, b->key.remote.port));
    } else {
        // Mirror of the outbound rule: only non-SYN traffic past the
        // handshake promotes. A retransmitted SYN followed by the
        // SYN-ACK must not jump to the established timeout.
        if (b->packets_out > 1 && (flags & 0x02) == 0) b->established = true;
        refresh_tcp(*b);
        if ((flags & 0x01) != 0) b->fin_in = true;
    }
    v.set_dst(b->key.internal.addr);
    v.set_dst_port(b->key.internal.port);
    finish(v);
    if (!udp) close_tcp(*b, flags);
    return Verdict::kForwarded;
}

void NatEngine::close_tcp(Binding& b, std::uint8_t flags) {
    if ((flags & 0x04) != 0)
        tcp_.remove(b.key);
    else if (b.fin_in && b.fin_out)
        tcp_.set_expiry(b, loop_.now() + profile_.tcp_fin_linger);
}

void NatEngine::flush() {
    udp_.clear();
    tcp_.clear();
    icmp_queries_.clear();
    ip_only_.clear();
}

void NatEngine::refresh_tcp(Binding& b) {
    tcp_.refresh(b, b.established ? profile_.tcp_established_timeout
                                  : profile_.tcp_transitory_timeout);
}

std::optional<net::Bytes> NatEngine::outbound_icmp(
    const net::Ipv4Packet& pkt) {
    net::IcmpMessage msg;
    try {
        msg = net::IcmpMessage::parse(pkt.payload);
    } catch (const net::ParseError&) {
        return std::nullopt;
    }
    if (msg.type == net::IcmpType::Echo) {
        const IcmpQueryKey key{pkt.h.src, msg.echo_id(), pkt.h.dst};
        if (!icmp_queries_.contains(key) &&
            icmp_queries_.size() >= kMaxIcmpQueries) {
            prune_expired(icmp_queries_, loop_.now());
            if (icmp_queries_.size() >= kMaxIcmpQueries) {
                ++stats_.dropped_capacity;
                obs::inc(m_drop_capacity_);
                return std::nullopt;
            }
        }
        icmp_queries_[key] =
            IcmpQueryBinding{key, loop_.now() + kIcmpQueryTimeout};
        auto out = translated_header(pkt, wan_addr_, pkt.h.dst);
        out.payload = pkt.payload; // id preserved
        return out.serialize();
    }
    // Outbound errors from LAN hosts: forward with outer translation.
    auto out = translated_header(pkt, wan_addr_, pkt.h.dst);
    out.payload = pkt.payload;
    return out.serialize();
}

std::optional<net::Bytes> NatEngine::outbound_unknown(
    const net::Ipv4Packet& pkt) {
    switch (profile_.unknown_proto) {
    case UnknownProtocolPolicy::Drop:
        ++stats_.dropped_policy;
        obs::inc(m_drop_policy_);
        return std::nullopt;
    case UnknownProtocolPolicy::Untranslated: {
        // Behave as a plain router: forward verbatim (TTL per profile).
        net::Ipv4Packet out = pkt;
        if (profile_.decrement_ttl)
            out.h.ttl = static_cast<std::uint8_t>(pkt.h.ttl - 1);
        return out.serialize();
    }
    case UnknownProtocolPolicy::TranslateIpOnly: {
        const IpOnlyKey key{pkt.h.protocol, pkt.h.dst};
        if (!ip_only_.contains(key) && ip_only_.size() >= kMaxIpOnly) {
            prune_expired(ip_only_, loop_.now());
            if (ip_only_.size() >= kMaxIpOnly) {
                ++stats_.dropped_capacity;
                obs::inc(m_drop_capacity_);
                return std::nullopt;
            }
        }
        ip_only_[key] = IpOnlyBinding{
            pkt.h.src, loop_.now() + profile_.unknown_proto_timeout};
        // Rewrite only the source address and the IP header checksum,
        // leaving the transport payload bytes untouched: SCTP's CRC
        // survives this, DCCP's pseudo-header checksum does not.
        net::Ipv4Packet out = pkt;
        out.h.src = wan_addr_;
        if (profile_.decrement_ttl)
            out.h.ttl = static_cast<std::uint8_t>(pkt.h.ttl - 1);
        return out.serialize(); // payload bytes preserved verbatim
    }
    }
    return std::nullopt;
}

std::optional<net::Bytes> NatEngine::hairpin(const net::Ipv4Packet& pkt) {
    if (!profile_.hairpin || pkt.h.protocol != net::proto::kUdp)
        return std::nullopt;
    net::Bytes bytes = pkt.serialize();
    auto v = net::PacketView::of(bytes);
    if (!v.has_l4()) return std::nullopt;
    const Binding* target = udp_.find_by_external(v.dst_port());
    if (target == nullptr || !hairpin_to(v, target->key.internal))
        return std::nullopt;
    return bytes;
}

bool NatEngine::hairpin_to(net::PacketView& v, net::Endpoint target) {
    const FlowKey key{net::proto::kUdp,
                      {v.src(), v.src_port()},
                      {wan_addr_, v.dst_port()}};
    Binding* sender = udp_.find_or_create_outbound(key);
    if (sender == nullptr) return false;
    ++sender->packets_out;
    udp_.refresh(*sender, udp_timeout_for(*sender, false, v.dst_port()));
    v.set_src(wan_addr_);
    v.set_dst(target.addr);
    v.set_src_port(sender->external_port);
    v.set_dst_port(target.port);
    finish(v);
    return true;
}

std::optional<net::Bytes> NatEngine::inbound(const net::Ipv4Packet& pkt,
                                             bool& handled) {
    GK_EXPECTS(configured());
    handled = false;
    switch (pkt.h.protocol) {
    case net::proto::kUdp:
    case net::proto::kTcp: {
        net::Bytes bytes = pkt.serialize();
        auto v = net::PacketView::of(bytes);
        const Verdict verdict = inbound(v);
        handled = verdict != Verdict::kNotOurs;
        if (verdict != Verdict::kForwarded) return std::nullopt;
        return bytes;
    }
    case net::proto::kIcmp:
        return inbound_icmp(pkt, handled);
    default:
        return inbound_unknown(pkt, handled);
    }
}

std::optional<IcmpKind> NatEngine::classify_icmp(const net::IcmpMessage& m) {
    using net::IcmpType;
    namespace code = net::icmp_code;
    switch (m.type) {
    case IcmpType::DestUnreachable:
        switch (m.code) {
        case code::kNetUnreachable:
            return IcmpKind::NetUnreachable;
        case code::kHostUnreachable:
            return IcmpKind::HostUnreachable;
        case code::kProtoUnreachable:
            return IcmpKind::ProtoUnreachable;
        case code::kPortUnreachable:
            return IcmpKind::PortUnreachable;
        case code::kFragNeeded:
            return IcmpKind::FragNeeded;
        case code::kSourceRouteFailed:
            return IcmpKind::SourceRouteFailed;
        default:
            return std::nullopt;
        }
    case IcmpType::SourceQuench:
        return IcmpKind::SourceQuench;
    case IcmpType::TimeExceeded:
        // Only the two defined codes classify; anything else used to be
        // lumped in with TtlExceeded, which let a spoofed error with a
        // nonsense code ride a device's TTL-translation posture.
        switch (m.code) {
        case code::kTtlExceeded:
            return IcmpKind::TtlExceeded;
        case code::kReassemblyTimeExceeded:
            return IcmpKind::ReassemblyTimeExceeded;
        default:
            return std::nullopt;
        }
    case IcmpType::ParamProblem:
        return IcmpKind::ParamProblem;
    default:
        return std::nullopt;
    }
}

bool NatEngine::icmp_error_admitted() {
    const auto now = loop_.now();
    if (now >= icmp_err_window_ + std::chrono::seconds(1)) {
        icmp_err_window_ = now;
        icmp_err_count_ = 0;
    }
    if (icmp_err_count_ >= profile_.icmp_error_rate_limit) return false;
    ++icmp_err_count_;
    return true;
}

bool NatEngine::embedded_quote_valid(const net::Ipv4Packet& embedded) {
    // RFC 792 quotes carry the embedded IP header plus at least the
    // first 8 transport bytes; a shorter quote cannot be checked against
    // a binding beyond the bare port pair, which is exactly the sloppy
    // acceptance attack class 4 exploits.
    if (embedded.payload.size() < 8) return false;
    if (embedded.h.protocol == net::proto::kUdp) {
        const auto udp_len = static_cast<std::uint16_t>(
            (embedded.payload[4] << 8) | embedded.payload[5]);
        if (udp_len < 8) return false; // impossible UDP header
    }
    return true;
}

void translate_quote(std::span<std::uint8_t> q, bool src_side,
                     net::Endpoint to, bool fix_ip_checksum,
                     bool fix_transport) {
    const auto read16 = [&q](std::size_t at) {
        return static_cast<std::uint16_t>((q[at] << 8) | q[at + 1]);
    };
    const auto write16 = [&q](std::size_t at, std::uint16_t v) {
        q[at] = static_cast<std::uint8_t>(v >> 8);
        q[at + 1] = static_cast<std::uint8_t>(v);
    };
    if (q.size() < 20) return;
    const std::size_t ihl = static_cast<std::size_t>(q[0] & 0xf) * 4;
    if (ihl < 20 || q.size() < ihl) return;

    const std::size_t ao = src_side ? 12 : 16;
    const std::uint32_t old_addr =
        (std::uint32_t{read16(ao)} << 16) | read16(ao + 2);
    const std::uint32_t new_addr = to.addr.value();
    write16(ao, static_cast<std::uint16_t>(new_addr >> 16));
    write16(ao + 2, static_cast<std::uint16_t>(new_addr));
    if (fix_ip_checksum)
        write16(10, net::checksum_update32(read16(10), old_addr, new_addr));

    const std::uint8_t proto = q[9];
    if (!fix_transport ||
        (proto != net::proto::kUdp && proto != net::proto::kTcp))
        return;
    const std::size_t po = ihl + (src_side ? 0u : 2u);
    if (q.size() < po + 2) return;
    const std::uint16_t old_port = read16(po);
    write16(po, to.port);
    if (proto != net::proto::kUdp || q.size() < ihl + 8) return;
    std::uint16_t ck = read16(ihl + 6);
    if (ck == 0) return; // the quoted datagram had no checksum
    ck = net::checksum_update32(ck, old_addr, new_addr);
    ck = net::checksum_update16(ck, old_port, to.port);
    write16(ihl + 6, ck == 0 ? 0xffff : ck);
}

net::Bytes NatEngine::synthesize_rst_from_icmp(
    const net::Ipv4Packet& embedded, const Binding& binding) const {
    // ls2 behavior: instead of relaying the ICMP error, fabricate a TCP
    // RST toward the internal host. The RST is invalid: sequence and ack
    // numbers are zero, so a correct TCP stack ignores it.
    net::TcpSegment rst;
    rst.src_port = binding.key.remote.port;
    rst.dst_port = binding.key.internal.port;
    rst.flags.rst = true;
    net::Ipv4Packet out;
    out.h.protocol = net::proto::kTcp;
    out.h.src = embedded.h.dst; // the remote the flow was talking to
    out.h.dst = binding.key.internal.addr;
    out.h.ttl = 64;
    out.payload = rst.serialize(out.h.src, out.h.dst);
    return out.serialize();
}

std::optional<net::Bytes> NatEngine::inbound_icmp(const net::Ipv4Packet& pkt,
                                                  bool& handled) {
    net::IcmpMessage msg;
    try {
        msg = net::IcmpMessage::parse(pkt.payload);
    } catch (const net::ParseError&) {
        return std::nullopt;
    }

    if (msg.type == net::IcmpType::EchoReply) {
        for (auto it = icmp_queries_.begin(); it != icmp_queries_.end();) {
            if (loop_.now() >= it->second.expires_at) {
                it = icmp_queries_.erase(it);
                continue;
            }
            if (it->first.id == msg.echo_id() &&
                it->first.remote == pkt.h.src) {
                handled = true;
                auto out = translated_header(pkt, pkt.h.src,
                                             it->first.internal);
                out.payload = pkt.payload;
                return out.serialize();
            }
            ++it;
        }
        return std::nullopt; // unsolicited reply: gateway-local (its ping)
    }

    if (!msg.is_error()) return std::nullopt;

    // Hardened devices budget how many inbound WAN errors they process
    // per second; once spent, errors are dropped before any quote parse
    // or binding lookup, so an attacker's port sweep starves itself.
    if (profile_.icmp_error_rate_limit > 0 && !icmp_error_admitted()) {
        handled = true;
        ++stats_.icmp_rate_limited;
        obs::inc(m_icmp_rate_limited_);
        return std::nullopt;
    }

    // Parse the quoted datagram to identify the binding it concerns.
    net::Ipv4Packet embedded;
    try {
        embedded = net::Ipv4Packet::parse_prefix(msg.payload);
    } catch (const net::ParseError&) {
        return std::nullopt;
    }
    if (embedded.h.src != wan_addr_) return std::nullopt; // not our flow

    // A quote of a non-first fragment carries mid-stream payload where
    // the transport header would sit; reading those bytes as ports could
    // alias an unrelated live binding on attacker-chosen data. The quote
    // is unattributable, so drop the error outright.
    if (embedded.h.frag_offset != 0) {
        handled = true;
        ++stats_.icmp_dropped;
        obs::inc(m_icmp_dropped_);
        return std::nullopt;
    }

    const auto kind = classify_icmp(msg);
    if (!kind) return std::nullopt;

    if (embedded.h.protocol == net::proto::kIcmp) {
        // Error about an ICMP echo flow (Table 2 "ICMP: Host Unreach.").
        handled = true;
        if (!profile_.icmp_query_errors_translated) {
            ++stats_.icmp_dropped;
            obs::inc(m_icmp_dropped_);
            return std::nullopt;
        }
        if (embedded.payload.size() < 8) return std::nullopt;
        const auto id = static_cast<std::uint16_t>(
            (embedded.payload[4] << 8) | embedded.payload[5]);
        for (const auto& [key, qb] : icmp_queries_) {
            if (key.id == id && key.remote == embedded.h.dst) {
                ++stats_.icmp_translated;
                obs::inc(m_icmp_translated_);
                // The quote's IP checksum covers the rewritten address;
                // leaving it stale survives one NAT layer (end hosts
                // rarely verify quotes) but a downstream home NAT that
                // validates embedded quotes discards the error.
                net::IcmpMessage fwd = msg;
                translate_quote(fwd.payload, /*src_side=*/true,
                                {key.internal, 0},
                                profile_.fix_embedded_ip_checksum,
                                profile_.fix_embedded_transport);
                auto out = translated_header(pkt, pkt.h.src, key.internal);
                out.payload = fwd.serialize();
                return out.serialize();
            }
        }
        return std::nullopt;
    }

    if (embedded.h.protocol != net::proto::kUdp &&
        embedded.h.protocol != net::proto::kTcp)
        return std::nullopt;
    if (embedded.payload.size() < 4) return std::nullopt;
    if (profile_.validate_embedded_binding &&
        !embedded_quote_valid(embedded)) {
        handled = true;
        ++stats_.icmp_quote_rejected;
        obs::inc(m_icmp_quote_rejected_);
        return std::nullopt;
    }

    const auto ext_port = static_cast<std::uint16_t>(
        (embedded.payload[0] << 8) | embedded.payload[1]);
    const auto remote_port = static_cast<std::uint16_t>(
        (embedded.payload[2] << 8) | embedded.payload[3]);
    const net::Endpoint remote{embedded.h.dst, remote_port};

    const bool is_tcp = embedded.h.protocol == net::proto::kTcp;
    BindingTable& table = is_tcp ? tcp_ : udp_;
    Binding* b = table.find_inbound(ext_port, remote);
    if (b == nullptr) return std::nullopt;
    handled = true;

    // Conntrack-style teardown posture: an accepted hard error purges
    // the binding it names, whether or not the device also relays the
    // error into the LAN. This is the ReDAN off-path DoS surface; the
    // purge runs after the relay bytes are built (the binding is read
    // there) and before every return below.
    const bool purge =
        profile_.icmp_error_teardown &&
        (*kind == IcmpKind::PortUnreachable ||
         *kind == IcmpKind::HostUnreachable ||
         *kind == IcmpKind::ProtoUnreachable);
    std::optional<net::Bytes> result;

    const auto& set = is_tcp ? profile_.icmp_tcp : profile_.icmp_udp;
    if (!set.translates(*kind)) {
        ++stats_.icmp_dropped;
        obs::inc(m_icmp_dropped_);
    } else if (is_tcp && profile_.tcp_icmp_becomes_rst) {
        ++stats_.icmp_translated;
        obs::inc(m_icmp_translated_);
        result = synthesize_rst_from_icmp(embedded, *b);
    } else {
        ++stats_.icmp_translated;
        obs::inc(m_icmp_translated_);
        net::IcmpMessage fwd = msg;
        translate_quote(fwd.payload, /*src_side=*/true, b->key.internal,
                        profile_.fix_embedded_ip_checksum,
                        profile_.fix_embedded_transport);
        auto out = translated_header(pkt, pkt.h.src, b->key.internal.addr);
        out.payload = fwd.serialize(); // outer ICMP checksum recomputed
        result = out.serialize();
    }
    if (purge) {
        ++stats_.icmp_teardowns;
        obs::inc(m_icmp_teardown_);
        table.remove(b->key); // b invalid past this point
    }
    return result;
}

std::optional<net::Bytes> NatEngine::inbound_unknown(
    const net::Ipv4Packet& pkt, bool& handled) {
    if (profile_.unknown_proto != UnknownProtocolPolicy::TranslateIpOnly)
        return std::nullopt;
    auto it = ip_only_.find(IpOnlyKey{pkt.h.protocol, pkt.h.src});
    if (it == ip_only_.end()) return std::nullopt;
    if (loop_.now() >= it->second.expires_at) {
        ip_only_.erase(it);
        return std::nullopt;
    }
    handled = true;
    if (!profile_.unknown_proto_inbound_allowed) {
        ++stats_.dropped_policy;
        obs::inc(m_drop_policy_);
        return std::nullopt;
    }
    it->second.expires_at = loop_.now() + profile_.unknown_proto_timeout;
    // IP-only rewrite of the destination; transport bytes untouched.
    net::Ipv4Packet out = pkt;
    out.h.dst = it->second.internal;
    if (profile_.decrement_ttl)
        out.h.ttl = static_cast<std::uint8_t>(pkt.h.ttl - 1);
    return out.serialize();
}

} // namespace gatekit::gateway
