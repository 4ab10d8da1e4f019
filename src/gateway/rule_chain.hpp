// Netfilter-style sequential rule chain, the workload Niemann et al.
// ("Performance Evaluation of netfilter") measure on Linux gateways:
// every packet walks an ordered rule list until the first match, so
// forwarding cost grows linearly with chain length. The chain here
// mirrors the iptables FORWARD-chain shape — per-rule 5-tuple matchers
// (protocol, source/destination prefixes, port ranges), ACCEPT/DROP
// verdicts, a default policy, and per-rule hit counters.
//
// A compiled single-pass classifier (bit-vector scheme in the style of
// Lakshman & Stiliadis) is built lazily from the same rule list: each
// dimension's elementary intervals carry a bitmask of the rules they
// satisfy, a lookup ANDs five masks and takes the lowest set bit. That
// turns the 1000-rule case from a 1000-step walk into five binary
// searches plus a 16-word AND, which is what flattens the rule-count
// curve in bench/rulechain_sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "net/packet_view.hpp"
#include "obs/metrics.hpp"

namespace gatekit::gateway {

enum class RuleVerdict : std::uint8_t { kAccept, kDrop };

/// Inclusive port range; the default [0, 65535] matches anything,
/// including the port-less protocols (whose key ports read as 0).
struct PortRange {
    std::uint16_t lo = 0;
    std::uint16_t hi = 65535;

    constexpr bool contains(std::uint16_t p) const {
        return p >= lo && p <= hi;
    }
    constexpr bool is_any() const { return lo == 0 && hi == 65535; }
};

/// One chain entry. Prefix length 0 (or protocol 0) means "any", as in
/// an iptables rule with that matcher omitted.
struct Rule {
    std::uint8_t proto = 0; ///< IP protocol number; 0 = any
    net::Ipv4Addr src_net;
    int src_prefix_len = 0;
    net::Ipv4Addr dst_net;
    int dst_prefix_len = 0;
    PortRange sport;
    PortRange dport;
    RuleVerdict verdict = RuleVerdict::kAccept;
};

class RuleChain {
public:
    /// The packet fields a rule can match on, extracted once per packet.
    struct Key {
        std::uint8_t proto = 0;
        std::uint32_t src = 0;
        std::uint32_t dst = 0;
        std::uint16_t sport = 0;
        std::uint16_t dport = 0;
    };

    /// Ports read 0 when the view has no parsed L4 header (fragments,
    /// ICMP, malformed transport) — matching netfilter, where a port
    /// matcher cannot match a packet that has no ports.
    static Key key_of(const net::PacketView& v) {
        return Key{v.protocol(), v.src().value(), v.dst().value(),
                   v.has_l4() ? v.src_port() : std::uint16_t{0},
                   v.has_l4() ? v.dst_port() : std::uint16_t{0}};
    }

    void add_rule(Rule r);
    void clear();
    std::size_t size() const { return rules_.size(); }
    bool empty() const { return rules_.empty(); }

    void set_default_verdict(RuleVerdict v) { default_verdict_ = v; }
    RuleVerdict default_verdict() const { return default_verdict_; }

    /// Sequential first-match walk — the netfilter cost model.
    RuleVerdict evaluate(const Key& k);

    /// Single-pass compiled classifier; same verdicts and counters as
    /// evaluate() for every key (compiles lazily after rule changes).
    RuleVerdict evaluate_compiled(const Key& k);

    /// Packets whose first match was rule `i` (either evaluate flavour).
    std::uint64_t hits(std::size_t i) const { return rules_[i].hit_count; }
    /// Packets that fell through to the default policy.
    std::uint64_t default_hits() const { return default_hits_; }

    /// Register per-rule hit counters plus chain totals in `reg` under
    /// `rule_chain.*`, labelled with the owning `device` like every other
    /// per-device series; pre-existing counts carry over.
    void attach_metrics(obs::MetricsRegistry& reg, const std::string& device);

private:
    struct Entry {
        Rule rule;
        std::uint64_t hit_count = 0;
        obs::Counter* obs_hits = nullptr;
    };

    /// One match dimension of the compiled form: sorted elementary
    /// interval starts plus, per interval, the bitmask of rules whose
    /// matcher covers it.
    struct Dimension {
        std::vector<std::uint32_t> starts; ///< starts[0] == 0 always
        std::vector<std::uint64_t> masks;  ///< starts.size() * words each
    };

    static bool matches(const Rule& r, const Key& k);
    void record_hit(Entry& e);
    void record_default();
    void compile();
    const std::uint64_t* dim_lookup(const Dimension& d,
                                    std::uint32_t v) const;

    std::vector<Entry> rules_;
    RuleVerdict default_verdict_ = RuleVerdict::kAccept;
    std::uint64_t default_hits_ = 0;
    obs::Counter* obs_default_ = nullptr;
    obs::Counter* obs_accepted_ = nullptr;
    obs::Counter* obs_dropped_ = nullptr;

    bool compiled_valid_ = false;
    std::size_t words_ = 0; ///< 64-bit words per rule bitmask
    Dimension dim_proto_, dim_src_, dim_dst_, dim_sport_, dim_dport_;
    std::vector<std::uint64_t> and_scratch_;
};

} // namespace gatekit::gateway
