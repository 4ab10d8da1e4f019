#include "gateway/rule_chain.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace gatekit::gateway {

namespace {

/// Inclusive match interval of one rule in one dimension.
struct Interval {
    std::uint32_t lo = 0;
    std::uint32_t hi = std::numeric_limits<std::uint32_t>::max();
};

Interval proto_interval(const Rule& r) {
    if (r.proto == 0) return {};
    return {r.proto, r.proto};
}

Interval prefix_interval(net::Ipv4Addr net, int prefix_len) {
    if (prefix_len <= 0) return {};
    const std::uint32_t mask =
        prefix_len >= 32 ? 0xffffffffu : ~((1u << (32 - prefix_len)) - 1);
    return {net.value() & mask, (net.value() & mask) | ~mask};
}

Interval port_interval(PortRange pr) { return {pr.lo, pr.hi}; }

} // namespace

bool RuleChain::matches(const Rule& r, const Key& k) {
    if (r.proto != 0 && r.proto != k.proto) return false;
    if (r.src_prefix_len > 0 &&
        !r.src_net.same_subnet(net::Ipv4Addr{k.src}, r.src_prefix_len))
        return false;
    if (r.dst_prefix_len > 0 &&
        !r.dst_net.same_subnet(net::Ipv4Addr{k.dst}, r.dst_prefix_len))
        return false;
    return r.sport.contains(k.sport) && r.dport.contains(k.dport);
}

void RuleChain::add_rule(Rule r) {
    rules_.push_back(Entry{r, 0, nullptr});
    compiled_valid_ = false;
}

void RuleChain::clear() {
    rules_.clear();
    default_hits_ = 0;
    compiled_valid_ = false;
}

void RuleChain::record_hit(Entry& e) {
    ++e.hit_count;
    obs::inc(e.obs_hits);
    obs::inc(e.rule.verdict == RuleVerdict::kAccept ? obs_accepted_
                                                    : obs_dropped_);
}

void RuleChain::record_default() {
    ++default_hits_;
    obs::inc(obs_default_);
    obs::inc(default_verdict_ == RuleVerdict::kAccept ? obs_accepted_
                                                      : obs_dropped_);
}

RuleVerdict RuleChain::evaluate(const Key& k) {
    for (Entry& e : rules_) {
        if (matches(e.rule, k)) {
            record_hit(e);
            return e.rule.verdict;
        }
    }
    record_default();
    return default_verdict_;
}

void RuleChain::compile() {
    const std::size_t n = rules_.size();
    words_ = (n + 63) / 64;
    and_scratch_.assign(words_, 0);

    auto build = [&](Dimension& d, auto interval_of) {
        d.starts.clear();
        d.starts.push_back(0);
        for (const Entry& e : rules_) {
            const Interval iv = interval_of(e.rule);
            d.starts.push_back(iv.lo);
            if (iv.hi != std::numeric_limits<std::uint32_t>::max())
                d.starts.push_back(iv.hi + 1);
        }
        std::sort(d.starts.begin(), d.starts.end());
        d.starts.erase(std::unique(d.starts.begin(), d.starts.end()),
                       d.starts.end());
        d.masks.assign(d.starts.size() * words_, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const Interval iv = interval_of(rules_[i].rule);
            const auto first = std::lower_bound(d.starts.begin(),
                                                d.starts.end(), iv.lo);
            const auto last =
                iv.hi == std::numeric_limits<std::uint32_t>::max()
                    ? d.starts.end()
                    : std::lower_bound(d.starts.begin(), d.starts.end(),
                                       iv.hi + 1);
            const std::uint64_t bit = std::uint64_t{1} << (i % 64);
            for (auto it = first; it != last; ++it) {
                const std::size_t seg =
                    static_cast<std::size_t>(it - d.starts.begin());
                d.masks[seg * words_ + i / 64] |= bit;
            }
        }
    };

    build(dim_proto_, [](const Rule& r) { return proto_interval(r); });
    build(dim_src_, [](const Rule& r) {
        return prefix_interval(r.src_net, r.src_prefix_len);
    });
    build(dim_dst_, [](const Rule& r) {
        return prefix_interval(r.dst_net, r.dst_prefix_len);
    });
    build(dim_sport_, [](const Rule& r) { return port_interval(r.sport); });
    build(dim_dport_, [](const Rule& r) { return port_interval(r.dport); });
    compiled_valid_ = true;
}

const std::uint64_t* RuleChain::dim_lookup(const Dimension& d,
                                           std::uint32_t v) const {
    // starts[0] == 0, so upper_bound is always past at least one element.
    const std::size_t seg = static_cast<std::size_t>(
        std::upper_bound(d.starts.begin(), d.starts.end(), v) -
        d.starts.begin() - 1);
    return &d.masks[seg * words_];
}

RuleVerdict RuleChain::evaluate_compiled(const Key& k) {
    if (rules_.empty()) {
        record_default();
        return default_verdict_;
    }
    if (!compiled_valid_) compile();
    const std::uint64_t* mp = dim_lookup(dim_proto_, k.proto);
    const std::uint64_t* ms = dim_lookup(dim_src_, k.src);
    const std::uint64_t* md = dim_lookup(dim_dst_, k.dst);
    const std::uint64_t* msp = dim_lookup(dim_sport_, k.sport);
    const std::uint64_t* mdp = dim_lookup(dim_dport_, k.dport);
    for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t hit = mp[w] & ms[w] & md[w] & msp[w] & mdp[w];
        if (hit != 0) {
            Entry& e = rules_[w * 64 + std::countr_zero(hit)];
            record_hit(e);
            return e.rule.verdict;
        }
    }
    record_default();
    return default_verdict_;
}

void RuleChain::attach_metrics(obs::MetricsRegistry& reg,
                               const std::string& chain) {
    const auto labels = reg.label_set({{"chain", chain}});
    obs_default_ = reg.counter("rule_chain_default_hits", labels);
    obs_accepted_ = reg.counter("rule_chain_accepted", labels);
    obs_dropped_ = reg.counter("rule_chain_dropped", labels);
    obs::add(obs_default_, default_hits_);
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        Entry& e = rules_[i];
        e.obs_hits = reg.counter(
            "rule_chain_rule_hits",
            {{"chain", chain}, {"rule", std::to_string(i)}});
        obs::add(e.obs_hits, e.hit_count);
    }
}

} // namespace gatekit::gateway
