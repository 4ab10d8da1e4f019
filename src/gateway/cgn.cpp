#include "gateway/cgn.hpp"

#include "net/icmp.hpp"
#include "util/assert.hpp"

namespace gatekit::gateway {

CgnEngine::CgnEngine(sim::EventLoop& loop, CgnConfig cfg)
    : loop_(loop), cfg_(cfg) {
    GK_EXPECTS(cfg_.pool_begin >= 1 && cfg_.pool_begin <= cfg_.pool_end);
    if (cfg_.block_size != 0) GK_EXPECTS(num_blocks() >= 1);
}

int CgnEngine::num_blocks() const {
    if (cfg_.block_size == 0) return 0;
    return (cfg_.pool_end - cfg_.pool_begin + 1) / cfg_.block_size;
}

void CgnEngine::set_addresses(net::Ipv4Addr access_addr,
                              int access_prefix_len,
                              net::Ipv4Addr external_addr) {
    GK_EXPECTS(!external_addr.is_unspecified());
    access_addr_ = access_addr;
    access_prefix_len_ = access_prefix_len;
    external_addr_ = external_addr;
    blocks_.clear();
    blocks_.resize(cfg_.block_size == 0
                       ? 1u
                       : static_cast<std::size_t>(num_blocks()));
    queries_ = std::make_unique<Slice>(
        loop_, net::Ipv4Addr{}, make_profile(cfg_.pool_begin, cfg_.pool_end),
        external_addr_);
    stats_ = Stats{};
}

std::optional<CgnEngine::BlockInfo>
CgnEngine::block_of(net::Ipv4Addr subscriber) const {
    GK_EXPECTS(configured());
    if (cfg_.block_size == 0) return std::nullopt;
    const auto n = static_cast<std::uint32_t>(num_blocks());
    const std::uint32_t host_mask =
        access_prefix_len_ == 0
            ? ~std::uint32_t{0}
            : ~(~std::uint32_t{0} << (32 - access_prefix_len_));
    const std::uint32_t host = subscriber.value() & host_mask;
    BlockInfo info;
    info.index = static_cast<int>(host % n);
    info.begin = static_cast<std::uint16_t>(
        cfg_.pool_begin + info.index * cfg_.block_size);
    info.end = static_cast<std::uint16_t>(info.begin + cfg_.block_size - 1);
    return info;
}

DeviceProfile CgnEngine::make_profile(std::uint16_t begin,
                                      std::uint16_t end) const {
    DeviceProfile p;
    p.tag = "cgn";
    p.vendor = "carrier";
    p.model = "cgn";
    p.firmware = "rfc6888";
    p.udp = cfg_.udp;
    p.tcp_established_timeout = cfg_.tcp_established_timeout;
    p.tcp_transitory_timeout = cfg_.tcp_transitory_timeout;
    p.tcp_fin_linger = cfg_.tcp_fin_linger;
    const int span = end - begin + 1;
    const int cap = cfg_.max_bindings > 0 ? cfg_.max_bindings : span;
    p.max_tcp_bindings = cap;
    p.max_udp_bindings = cap;
    // Preserving the subscriber's source port is impossible — it lies
    // outside the assigned block — so EIM is paired pooling (RFC 6888
    // APP) and EDM is a fresh sequential port per flow.
    p.port_allocation = cfg_.eim ? PortAllocation::ReusePooled
                                 : PortAllocation::Sequential;
    p.port_quarantine = sim::Duration{0};
    p.pool_begin = begin;
    p.pool_end = end;
    p.icmp_tcp = IcmpTranslationSet::all();
    p.icmp_udp = IcmpTranslationSet::all();
    p.hairpin = cfg_.hairpin;
    p.decrement_ttl = true;
    GK_EXPECTS(p.validate().empty());
    return p;
}

CgnEngine::Slice* CgnEngine::slice_for_subscriber(net::Ipv4Addr src) {
    if (cfg_.block_size == 0) {
        auto& s = blocks_[0];
        if (!s)
            s = std::make_unique<Slice>(
                loop_, net::Ipv4Addr{},
                make_profile(cfg_.pool_begin, cfg_.pool_end),
                external_addr_);
        return s.get();
    }
    const auto info = block_of(src);
    auto& s = blocks_[static_cast<std::size_t>(info->index)];
    if (!s) {
        s = std::make_unique<Slice>(loop_, src,
                                    make_profile(info->begin, info->end),
                                    external_addr_);
        return s.get();
    }
    if (s->owner != src) {
        // Deterministic NAT refusal: the block is statically someone
        // else's. An over-subscribed modulus surfaces as exhaustion for
        // the colliding address, never as port leakage across blocks.
        ++stats_.block_collisions;
        return nullptr;
    }
    return s.get();
}

CgnEngine::Slice* CgnEngine::slice_for_port(std::uint16_t external_port) {
    if (external_port < cfg_.pool_begin || external_port > cfg_.pool_end)
        return nullptr;
    if (cfg_.block_size == 0) return blocks_[0].get();
    const auto idx = static_cast<std::size_t>(
        (external_port - cfg_.pool_begin) / cfg_.block_size);
    // Remainder ports past the last full block are never allocated.
    if (idx >= blocks_.size()) return nullptr;
    return blocks_[idx].get();
}

NatEngine::Verdict CgnEngine::outbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    using Verdict = NatEngine::Verdict;
    if (v.ttl() <= 1) return Verdict::kDropped; // caller emits Time Exceeded
    if (!on_access_subnet(v.src())) {
        ++stats_.dropped_policy;
        return Verdict::kDropped;
    }
    switch (v.protocol()) {
    case net::proto::kUdp:
    case net::proto::kTcp: {
        Slice* s = slice_for_subscriber(v.src());
        if (s == nullptr) return Verdict::kDropped; // block collision (counted)
        const auto refused = s->nat.stats().dropped_capacity;
        if (s->nat.outbound(v) != Verdict::kForwarded) {
            if (s->nat.stats().dropped_capacity != refused)
                ++stats_.pool_exhausted;
            return Verdict::kDropped;
        }
        ++stats_.translated_out;
        return Verdict::kForwarded;
    }
    case net::proto::kIcmp: {
        const bool error = quote_external_view(v.payload());
        NatEngine& nat = queries_->nat;
        const auto refused = nat.stats().dropped_capacity;
        if (nat.outbound(v) != Verdict::kForwarded) {
            // A full query table refuses by policy; a message shorter
            // than its header is the engine's counted malformed drop.
            if (nat.stats().dropped_capacity != refused)
                ++stats_.dropped_policy;
            return Verdict::kDropped;
        }
        ++(error ? stats_.icmp_relayed : stats_.translated_out);
        return Verdict::kForwarded;
    }
    default:
        // RFC 6888 scopes a CGN to the transports it can multiplex;
        // anything else cannot share the external address and is dropped.
        ++stats_.dropped_policy;
        return Verdict::kDropped;
    }
}

bool CgnEngine::quote_external_view(std::span<std::uint8_t> icmp) {
    if (icmp.size() < 8 || !net::is_icmp_error(icmp[0])) return false;
    // A subscriber-originated error (a home gateway's Time Exceeded, a
    // port unreachable) quotes the inbound packet as the subscriber saw
    // it: destination = subscriber address and internal port. Rewrite
    // that half to the external view so the upstream sender can
    // attribute the error to its own flow through both layers.
    const auto quote = icmp.subspan(8);
    const auto q = IcmpQuote::parse(quote);
    if (q && q->frag_offset == 0 && on_access_subnet(q->dst)) {
        if ((q->protocol == net::proto::kUdp ||
             q->protocol == net::proto::kTcp) &&
            q->l4.size() >= 4) {
            if (Slice* s = slice_for_subscriber(q->dst)) {
                BindingTable& table = q->protocol == net::proto::kUdp
                                          ? s->nat.udp_table()
                                          : s->nat.tcp_table();
                const FlowKey key{q->protocol,
                                  {q->dst, q->word(2)},
                                  {q->src, q->word(0)}};
                if (const Binding* b = table.find_outbound(key))
                    translate_quote(quote, /*src_side=*/false,
                                    {external_addr_, b->external_port},
                                    true, true);
            }
        } else if (q->protocol == net::proto::kIcmp) {
            // Error about an inbound echo reply: the quote's destination
            // is the subscriber that sent the query; only the address
            // needs the external view (the query id is preserved).
            translate_quote(quote, /*src_side=*/false, {external_addr_, 0},
                            true, true);
        }
    }
    net::refresh_icmp_checksum(icmp);
    return true;
}

NatEngine::Verdict CgnEngine::inbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    using Verdict = NatEngine::Verdict;
    if (v.dst() != external_addr_) return Verdict::kNotOurs;
    switch (v.protocol()) {
    case net::proto::kUdp:
    case net::proto::kTcp: {
        if (!v.has_l4()) return Verdict::kNotOurs;
        Slice* s = slice_for_port(v.dst_port());
        if (s == nullptr) return Verdict::kNotOurs; // outside the pool
        // The block profile forwards WAN SYNs, so a packet is either
        // translated or claimed by no binding.
        if (s->nat.inbound(v) != Verdict::kForwarded) {
            ++stats_.dropped_no_binding;
            return Verdict::kNotOurs; // unsolicited: the CGN's own stack
        }
        ++stats_.translated_in;
        return Verdict::kForwarded;
    }
    case net::proto::kIcmp: {
        NatEngine* nat = icmp_engine(v.payload());
        if (nat == nullptr) return Verdict::kNotOurs; // outside the pool
        const auto relayed = nat->stats().icmp_translated;
        const auto verdict = nat->inbound(v);
        if (verdict == Verdict::kDropped) ++stats_.icmp_dropped;
        if (verdict == Verdict::kForwarded)
            ++(nat->stats().icmp_translated != relayed ? stats_.icmp_relayed
                                                       : stats_.translated_in);
        return verdict;
    }
    default:
        return Verdict::kNotOurs; // CGN-host local (none expected)
    }
}

NatEngine* CgnEngine::icmp_engine(std::span<const std::uint8_t> icmp) {
    if (icmp.size() >= 8 && net::is_icmp_error(icmp[0])) {
        const auto q = IcmpQuote::parse(icmp.subspan(8));
        if (q && q->frag_offset == 0 &&
            (q->protocol == net::proto::kUdp ||
             q->protocol == net::proto::kTcp) &&
            q->l4.size() >= 4) {
            Slice* s = slice_for_port(q->word(0));
            return s == nullptr ? nullptr : &s->nat;
        }
    }
    return &queries_->nat;
}

bool CgnEngine::hairpin(net::PacketView& v) {
    GK_EXPECTS(configured());
    if (!cfg_.hairpin || v.protocol() != net::proto::kUdp || !v.has_l4())
        return false;
    Slice* ts = slice_for_port(v.dst_port());
    const Binding* target =
        ts != nullptr ? ts->nat.udp_table().find_by_external(v.dst_port())
                      : nullptr;
    if (target == nullptr) return false;

    Slice* ss = slice_for_subscriber(v.src());
    if (ss == nullptr) return false;
    if (!ss->nat.hairpin_to(v, target->key.internal)) {
        ++stats_.pool_exhausted;
        return false;
    }
    ++stats_.hairpinned;
    return true;
}

std::size_t CgnEngine::live_bindings(net::Ipv4Addr subscriber) {
    GK_EXPECTS(configured());
    if (cfg_.block_size == 0) {
        // Shared pool: per-subscriber attribution would need a table
        // walk; report the pool-wide total (what exhaustion is felt
        // against).
        auto* s = blocks_[0].get();
        return s == nullptr ? 0
                            : s->nat.udp_table().size() +
                                  s->nat.tcp_table().size();
    }
    const auto info = block_of(subscriber);
    auto* s = blocks_[static_cast<std::size_t>(info->index)].get();
    if (s == nullptr || s->owner != subscriber) return 0;
    return s->nat.udp_table().size() + s->nat.tcp_table().size();
}

const NatEngine* CgnEngine::engine_for(net::Ipv4Addr subscriber) const {
    GK_EXPECTS(configured());
    const std::size_t idx =
        cfg_.block_size == 0
            ? 0
            : static_cast<std::size_t>(block_of(subscriber)->index);
    const Slice* s = blocks_[idx].get();
    if (s == nullptr || (cfg_.block_size != 0 && s->owner != subscriber))
        return nullptr;
    return &s->nat;
}

void CgnEngine::flush() {
    for (auto& s : blocks_)
        if (s) s->nat.flush();
    if (queries_) queries_->nat.flush();
}

CgnGateway::CgnGateway(sim::EventLoop& loop, Config config)
    : config_(std::move(config)),
      forwarder_(loop,
                 {.name = "cgn",
                  .inside_mac = net::MacAddr::from_index(config_.mac_index),
                  .wan_mac = net::MacAddr::from_index(config_.mac_index + 1),
                  .inside_addr = config_.access_addr,
                  .inside_prefix_len = config_.access_prefix_len,
                  .inside_pool_base = config_.access_pool_base}),
      engine_(loop, config_.cgn) {
    forwarder_.attach(*this);
}

void CgnGateway::start(std::function<void(net::Ipv4Addr)> on_ready) {
    forwarder_.start([this, on_ready = std::move(on_ready)](
                         const stack::DhcpLease& lease) {
        engine_.set_addresses(config_.access_addr,
                              config_.access_prefix_len, lease.addr);
        if (on_ready) on_ready(lease.addr);
    });
}

} // namespace gatekit::gateway
