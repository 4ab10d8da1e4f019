#include "gateway/nat_engine.hpp"

#include <algorithm>

#include "net/checksum.hpp"
#include "net/icmp.hpp"
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

std::uint16_t word_at(std::span<const std::uint8_t> b, std::size_t at) {
    return static_cast<std::uint16_t>((b[at] << 8) | b[at + 1]);
}
} // namespace

NatEngine::NatEngine(sim::EventLoop& loop, const DeviceProfile& profile)
    : loop_(loop), profile_(profile), udp_(loop, profile, net::proto::kUdp),
      tcp_(loop, profile, net::proto::kTcp) {}

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

NatEngine::Verdict NatEngine::outbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    if (profile_.decrement_ttl && v.ttl() <= 1) return Verdict::kDropped;
    if (v.protocol() == net::proto::kIcmp) return icmp_outbound(v);
    if (v.protocol() != net::proto::kUdp && v.protocol() != net::proto::kTcp)
        return other_outbound(v);
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
    if (v.protocol() == net::proto::kIcmp) return icmp_inbound(v);
    if (v.protocol() != net::proto::kUdp && v.protocol() != net::proto::kTcp)
        return other_inbound(v);
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

NatEngine::Verdict NatEngine::icmp_outbound(net::PacketView& v) {
    const auto icmp = v.payload();
    if (icmp.size() < 8) {
        ++stats_.dropped_malformed;
        return Verdict::kDropped;
    }
    if (icmp[0] == static_cast<std::uint8_t>(net::IcmpType::Echo)) {
        const IcmpQueryKey key{v.src(), word_at(icmp, 4), v.dst()};
        if (!icmp_queries_.contains(key) &&
            icmp_queries_.size() >= kMaxIcmpQueries) {
            prune_expired(icmp_queries_, loop_.now());
            if (icmp_queries_.size() >= kMaxIcmpQueries) {
                ++stats_.dropped_capacity;
                obs::inc(m_drop_capacity_);
                return Verdict::kDropped;
            }
        }
        icmp_queries_[key] =
            IcmpQueryBinding{key, loop_.now() + kIcmpQueryTimeout};
    }
    // The echo id is preserved; every other message, errors LAN hosts
    // send included, crosses with only the outer header translated.
    v.set_src(wan_addr_);
    finish(v);
    return Verdict::kForwarded;
}

NatEngine::Verdict NatEngine::other_outbound(net::PacketView& v) {
    switch (profile_.unknown_proto) {
    case UnknownProtocolPolicy::Drop:
        ++stats_.dropped_policy;
        obs::inc(m_drop_policy_);
        return Verdict::kDropped;
    case UnknownProtocolPolicy::Untranslated:
        break; // behave as a plain router: forward verbatim
    case UnknownProtocolPolicy::TranslateIpOnly: {
        const IpOnlyKey key{v.protocol(), v.dst()};
        if (!ip_only_.contains(key) && ip_only_.size() >= kMaxIpOnly) {
            prune_expired(ip_only_, loop_.now());
            if (ip_only_.size() >= kMaxIpOnly) {
                ++stats_.dropped_capacity;
                obs::inc(m_drop_capacity_);
                return Verdict::kDropped;
            }
        }
        ip_only_[key] = IpOnlyBinding{
            v.src(), loop_.now() + profile_.unknown_proto_timeout};
        // Rewrite only the source address and the IP header checksum,
        // leaving the transport bytes untouched: SCTP's CRC survives
        // this, DCCP's pseudo-header checksum does not.
        v.set_src(wan_addr_);
        break;
    }
    }
    // Neither policy stamps Record Route.
    if (profile_.decrement_ttl) v.decrement_ttl();
    return Verdict::kForwarded;
}

bool NatEngine::hairpin(net::PacketView& v) {
    if (!profile_.hairpin || v.protocol() != net::proto::kUdp || !v.has_l4())
        return false;
    const Binding* target = udp_.find_by_external(v.dst_port());
    return target != nullptr && hairpin_to(v, target->key.internal);
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

std::optional<IcmpKind> NatEngine::classify_icmp(std::uint8_t type,
                                                 std::uint8_t code_value) {
    using net::IcmpType;
    namespace code = net::icmp_code;
    switch (static_cast<IcmpType>(type)) {
    case IcmpType::DestUnreachable:
        switch (code_value) {
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
        switch (code_value) {
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

std::optional<IcmpQuote> IcmpQuote::parse(std::span<const std::uint8_t> q) {
    if (q.size() < 20 || (q[0] >> 4) != 4) return std::nullopt;
    const std::size_t ihl = static_cast<std::size_t>(q[0] & 0xf) * 4;
    const std::size_t total = word_at(q, 2);
    if (ihl < 20 || ihl > q.size() || total < ihl) return std::nullopt;
    IcmpQuote out;
    out.protocol = q[9];
    out.frag_offset = word_at(q, 6) & 0x1fff;
    out.src = net::Ipv4Addr{(std::uint32_t{word_at(q, 12)} << 16) |
                            word_at(q, 14)};
    out.dst = net::Ipv4Addr{(std::uint32_t{word_at(q, 16)} << 16) |
                            word_at(q, 18)};
    out.l4 = q.subspan(ihl, std::min(total, q.size()) - ihl);
    return out;
}

bool IcmpQuote::complete() const {
    // RFC 792 quotes carry the embedded IP header plus at least the
    // first 8 transport bytes; a shorter quote cannot be checked against
    // a binding beyond the bare port pair, which is exactly the sloppy
    // acceptance attack class 4 exploits.
    if (l4.size() < 8) return false;
    return protocol != net::proto::kUdp || word(4) >= 8; // UDP length
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

void NatEngine::rst_from_icmp(net::PacketView& v, net::Ipv4Addr remote,
                              const Binding& binding) const {
    // ls2 behavior: instead of relaying the ICMP error, fabricate a TCP
    // RST toward the internal host. The RST is invalid: sequence and ack
    // numbers are zero, so a correct TCP stack ignores it.
    net::TcpSegment rst;
    rst.src_port = binding.key.remote.port;
    rst.dst_port = binding.key.internal.port;
    rst.flags.rst = true;
    net::Ipv4Packet out;
    out.h.protocol = net::proto::kTcp;
    out.h.src = remote; // the remote the flow was talking to
    out.h.dst = binding.key.internal.addr;
    out.h.ttl = 64;
    out.payload = rst.serialize(out.h.src, out.h.dst);
    const net::Bytes bytes = out.serialize();
    // Any error that gets here quotes at least an IP header and 4
    // transport bytes after its own 28 header bytes: more than 40.
    GK_ASSERT(bytes.size() <= v.total_len());
    std::copy(bytes.begin(), bytes.end(), v.data());
    v = net::PacketView::of({v.data(), bytes.size()});
}

void NatEngine::relay_error(net::PacketView& v, std::span<std::uint8_t> icmp,
                            net::Endpoint to) const {
    // The quote's IP checksum covers the rewritten address; leaving it
    // stale survives one NAT layer (end hosts rarely verify quotes) but
    // a downstream NAT that validates embedded quotes discards the error.
    translate_quote(icmp.subspan(8), /*src_side=*/true, to,
                    profile_.fix_embedded_ip_checksum,
                    profile_.fix_embedded_transport);
    net::refresh_icmp_checksum(icmp);
    v.set_dst(to.addr);
    finish(v);
}

NatEngine::Verdict NatEngine::icmp_inbound(net::PacketView& v) {
    const auto icmp = v.payload();
    if (icmp.size() < 8) return Verdict::kNotOurs;
    const std::uint8_t type = icmp[0];

    if (type == static_cast<std::uint8_t>(net::IcmpType::EchoReply)) {
        const std::uint16_t id = word_at(icmp, 4);
        for (auto it = icmp_queries_.begin(); it != icmp_queries_.end();) {
            if (loop_.now() >= it->second.expires_at) {
                it = icmp_queries_.erase(it);
                continue;
            }
            if (it->first.id == id && it->first.remote == v.src()) {
                v.set_dst(it->first.internal); // checksum untouched
                finish(v);
                return Verdict::kForwarded;
            }
            ++it;
        }
        return Verdict::kNotOurs; // unsolicited reply: gateway-local
    }

    if (!net::is_icmp_error(type)) return Verdict::kNotOurs;

    // Hardened devices budget how many inbound WAN errors they process
    // per second; once spent, errors are dropped before any quote parse
    // or binding lookup, so an attacker's port sweep starves itself.
    if (profile_.icmp_error_rate_limit > 0 && !icmp_error_admitted()) {
        ++stats_.icmp_rate_limited;
        obs::inc(m_icmp_rate_limited_);
        return Verdict::kDropped;
    }

    // Identify the binding the quoted datagram concerns.
    const auto quote = IcmpQuote::parse(icmp.subspan(8));
    if (!quote || quote->src != wan_addr_) return Verdict::kNotOurs;

    // A quote of a non-first fragment carries mid-stream payload where
    // the transport header would sit; reading those bytes as ports could
    // alias an unrelated live binding on attacker-chosen data. The quote
    // is unattributable, so drop the error outright.
    if (quote->frag_offset != 0) {
        ++stats_.icmp_dropped;
        obs::inc(m_icmp_dropped_);
        return Verdict::kDropped;
    }

    const auto kind = classify_icmp(type, icmp[1]);
    if (!kind) return Verdict::kNotOurs;

    if (quote->protocol == net::proto::kIcmp) {
        // Error about an ICMP echo flow (Table 2 "ICMP: Host Unreach.").
        // A device that never translates these drops every one; otherwise
        // an error the NAT cannot pin to a live query (too short a quote,
        // no query, an expired one) is not the NAT's and reaches the
        // gateway's own stack — its own ping hears its errors.
        if (!profile_.icmp_query_errors_translated) {
            ++stats_.icmp_dropped;
            obs::inc(m_icmp_dropped_);
            return Verdict::kDropped;
        }
        if (quote->l4.size() < 8) return Verdict::kNotOurs;
        const std::uint16_t id = quote->word(4);
        for (const auto& [key, qb] : icmp_queries_) {
            if (key.id == id && key.remote == quote->dst &&
                loop_.now() < qb.expires_at) {
                ++stats_.icmp_translated;
                obs::inc(m_icmp_translated_);
                relay_error(v, icmp, {key.internal, 0});
                return Verdict::kForwarded;
            }
        }
        return Verdict::kNotOurs;
    }

    if (quote->protocol != net::proto::kUdp &&
        quote->protocol != net::proto::kTcp)
        return Verdict::kNotOurs;
    if (quote->l4.size() < 4) return Verdict::kNotOurs;
    if (profile_.validate_embedded_binding && !quote->complete()) {
        ++stats_.icmp_quote_rejected;
        obs::inc(m_icmp_quote_rejected_);
        return Verdict::kDropped;
    }

    const bool is_tcp = quote->protocol == net::proto::kTcp;
    const net::Ipv4Addr remote = quote->dst;
    BindingTable& table = is_tcp ? tcp_ : udp_;
    Binding* b = table.find_inbound(quote->word(0), {remote, quote->word(2)});
    if (b == nullptr) return Verdict::kNotOurs;

    // Conntrack-style teardown posture: an accepted hard error purges
    // the binding it names, whether or not the device also relays the
    // error into the LAN. This is the ReDAN off-path DoS surface; the
    // purge runs after the relay is written (the binding is read there).
    const bool purge =
        profile_.icmp_error_teardown &&
        (*kind == IcmpKind::PortUnreachable ||
         *kind == IcmpKind::HostUnreachable ||
         *kind == IcmpKind::ProtoUnreachable);
    Verdict verdict = Verdict::kForwarded;

    const auto& set = is_tcp ? profile_.icmp_tcp : profile_.icmp_udp;
    if (!set.translates(*kind)) {
        ++stats_.icmp_dropped;
        obs::inc(m_icmp_dropped_);
        verdict = Verdict::kDropped;
    } else if (is_tcp && profile_.tcp_icmp_becomes_rst) {
        ++stats_.icmp_translated;
        obs::inc(m_icmp_translated_);
        rst_from_icmp(v, remote, *b); // the quote is gone past here
    } else {
        ++stats_.icmp_translated;
        obs::inc(m_icmp_translated_);
        relay_error(v, icmp, b->key.internal);
    }
    if (purge) {
        ++stats_.icmp_teardowns;
        obs::inc(m_icmp_teardown_);
        table.remove(b->key); // b invalid past this point
    }
    return verdict;
}

NatEngine::Verdict NatEngine::other_inbound(net::PacketView& v) {
    if (profile_.unknown_proto != UnknownProtocolPolicy::TranslateIpOnly)
        return Verdict::kNotOurs;
    auto it = ip_only_.find(IpOnlyKey{v.protocol(), v.src()});
    if (it == ip_only_.end()) return Verdict::kNotOurs;
    if (loop_.now() >= it->second.expires_at) {
        ip_only_.erase(it);
        return Verdict::kNotOurs;
    }
    if (!profile_.unknown_proto_inbound_allowed) {
        ++stats_.dropped_policy;
        obs::inc(m_drop_policy_);
        return Verdict::kDropped;
    }
    it->second.expires_at = loop_.now() + profile_.unknown_proto_timeout;
    // IP-only rewrite of the destination; transport bytes untouched.
    v.set_dst(it->second.internal);
    if (profile_.decrement_ttl) v.decrement_ttl();
    return Verdict::kForwarded;
}

} // namespace gatekit::gateway
