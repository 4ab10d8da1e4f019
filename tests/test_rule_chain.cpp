#include "gateway/rule_chain.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/addr.hpp"
#include "obs/metrics.hpp"

using namespace gatekit;
using gateway::PortRange;
using gateway::Rule;
using gateway::RuleChain;
using gateway::RuleVerdict;

namespace {

constexpr std::uint8_t kUdp = 17;
constexpr std::uint8_t kTcp = 6;

RuleChain::Key udp_key(net::Ipv4Addr src, std::uint16_t sport,
                       net::Ipv4Addr dst, std::uint16_t dport) {
    return RuleChain::Key{kUdp, src.value(), dst.value(), sport, dport};
}

Rule udp_dport_rule(std::uint16_t lo, std::uint16_t hi, RuleVerdict v) {
    Rule r;
    r.proto = kUdp;
    r.dport = PortRange{lo, hi};
    r.verdict = v;
    return r;
}

} // namespace

TEST(RuleChain, FirstMatchWins) {
    RuleChain chain;
    chain.add_rule(udp_dport_rule(53, 53, RuleVerdict::kDrop));
    chain.add_rule(udp_dport_rule(0, 65535, RuleVerdict::kAccept));

    const auto k = udp_key(net::Ipv4Addr(192, 168, 1, 2), 40000,
                           net::Ipv4Addr(8, 8, 8, 8), 53);
    EXPECT_EQ(chain.evaluate(k), RuleVerdict::kDrop);
    EXPECT_EQ(chain.hits(0), 1u);
    EXPECT_EQ(chain.hits(1), 0u); // later overlapping rule never reached
    EXPECT_EQ(chain.default_hits(), 0u);
}

TEST(RuleChain, PortRangeEdgesAreInclusive) {
    RuleChain chain;
    chain.set_default_verdict(RuleVerdict::kAccept);
    chain.add_rule(udp_dport_rule(100, 200, RuleVerdict::kDrop));

    auto verdict = [&](std::uint16_t dport) {
        return chain.evaluate(udp_key(net::Ipv4Addr(10, 0, 0, 1), 1234,
                                      net::Ipv4Addr(10, 0, 0, 2), dport));
    };
    EXPECT_EQ(verdict(99), RuleVerdict::kAccept);
    EXPECT_EQ(verdict(100), RuleVerdict::kDrop);
    EXPECT_EQ(verdict(200), RuleVerdict::kDrop);
    EXPECT_EQ(verdict(201), RuleVerdict::kAccept);
}

TEST(RuleChain, AnyPortRangeMatchesPortlessKey) {
    RuleChain chain;
    Rule r;
    r.proto = 0; // any protocol
    r.verdict = RuleVerdict::kDrop;
    chain.add_rule(r); // all matchers "any"

    // A fragment / ICMP key reads ports as 0; an any-range rule matches,
    // a specific port matcher must not.
    RuleChain::Key portless{1 /* ICMP */, net::Ipv4Addr(1, 2, 3, 4).value(),
                            net::Ipv4Addr(5, 6, 7, 8).value(), 0, 0};
    EXPECT_EQ(chain.evaluate(portless), RuleVerdict::kDrop);

    RuleChain ports;
    ports.add_rule(udp_dport_rule(53, 53, RuleVerdict::kDrop));
    RuleChain::Key udp_portless{kUdp, 0, 0, 0, 0};
    EXPECT_EQ(ports.evaluate(udp_portless), RuleVerdict::kAccept);
    EXPECT_EQ(ports.default_hits(), 1u);
}

TEST(RuleChain, PrefixAndProtocolMatchers) {
    RuleChain chain;
    Rule r;
    r.proto = kTcp;
    r.src_net = net::Ipv4Addr(192, 168, 0, 0);
    r.src_prefix_len = 16;
    r.verdict = RuleVerdict::kDrop;
    chain.add_rule(r);

    RuleChain::Key in_net{kTcp, net::Ipv4Addr(192, 168, 200, 9).value(),
                          net::Ipv4Addr(1, 1, 1, 1).value(), 1, 2};
    RuleChain::Key out_net{kTcp, net::Ipv4Addr(192, 169, 0, 1).value(),
                           net::Ipv4Addr(1, 1, 1, 1).value(), 1, 2};
    RuleChain::Key wrong_proto = in_net;
    wrong_proto.proto = kUdp;

    EXPECT_EQ(chain.evaluate(in_net), RuleVerdict::kDrop);
    EXPECT_EQ(chain.evaluate(out_net), RuleVerdict::kAccept);
    EXPECT_EQ(chain.evaluate(wrong_proto), RuleVerdict::kAccept);
    EXPECT_EQ(chain.default_hits(), 2u);
}

TEST(RuleChain, DefaultVerdictApplies) {
    RuleChain chain;
    chain.set_default_verdict(RuleVerdict::kDrop);
    EXPECT_EQ(chain.evaluate(udp_key(net::Ipv4Addr(1, 1, 1, 1), 1,
                                     net::Ipv4Addr(2, 2, 2, 2), 2)),
              RuleVerdict::kDrop);
    EXPECT_EQ(chain.default_hits(), 1u);
}

// Counters must count identically whether or not a metrics registry is
// attached, and attach must carry pre-existing counts over.
TEST(RuleChain, CountersWithAndWithoutObservability) {
    RuleChain chain;
    chain.add_rule(udp_dport_rule(80, 80, RuleVerdict::kAccept));

    const auto hit = udp_key(net::Ipv4Addr(10, 0, 0, 1), 5555,
                             net::Ipv4Addr(10, 0, 0, 2), 80);
    const auto miss = udp_key(net::Ipv4Addr(10, 0, 0, 1), 5555,
                              net::Ipv4Addr(10, 0, 0, 2), 81);

    // Observability off: plain counters still advance.
    chain.evaluate(hit);
    chain.evaluate(miss);
    EXPECT_EQ(chain.hits(0), 1u);
    EXPECT_EQ(chain.default_hits(), 1u);

    // Attach mid-life: registry counters start from the carried-over
    // values and then track new hits one-for-one.
    obs::MetricsRegistry reg;
    chain.attach_metrics(reg, "forward");
    EXPECT_EQ(reg.counter_value("rule_chain.rule_hits",
                                {{"device", "forward"}, {"rule", "0"}}),
              1u);
    EXPECT_EQ(reg.counter_value("rule_chain.default_hits",
                                {{"device", "forward"}}),
              1u);

    chain.evaluate(hit);
    chain.evaluate(hit);
    EXPECT_EQ(chain.hits(0), 3u);
    EXPECT_EQ(reg.counter_value("rule_chain.rule_hits",
                                {{"device", "forward"}, {"rule", "0"}}),
              3u);
    EXPECT_EQ(reg.counter_value("rule_chain.accepted",
                                {{"device", "forward"}}),
              2u);
}

// The compiled classifier must agree with the sequential walk on every
// key — verdicts and per-rule counters both.
TEST(RuleChain, CompiledMatchesSequentialEverywhere) {
    RuleChain seq;
    RuleChain comp;
    std::uint32_t state = 0x12345678u;
    auto next = [&state]() {
        state = state * 1664525u + 1013904223u;
        return state;
    };
    for (int i = 0; i < 64; ++i) {
        Rule r;
        const std::uint32_t roll = next();
        r.proto = (roll & 1u) ? kUdp : ((roll & 2u) ? kTcp : 0);
        if (roll & 4u) {
            r.src_net = net::Ipv4Addr(next());
            r.src_prefix_len = 8 + static_cast<int>(next() % 25u);
        }
        if (roll & 8u) {
            r.dst_net = net::Ipv4Addr(next());
            r.dst_prefix_len = 8 + static_cast<int>(next() % 25u);
        }
        if (roll & 16u) {
            const std::uint16_t lo = static_cast<std::uint16_t>(next());
            const std::uint16_t hi =
                static_cast<std::uint16_t>(lo + (next() & 0x3FFu));
            r.dport = PortRange{lo, hi < lo ? std::uint16_t{65535} : hi};
        }
        if (roll & 32u) {
            const std::uint16_t lo = static_cast<std::uint16_t>(next());
            const std::uint16_t hi =
                static_cast<std::uint16_t>(lo + (next() & 0x3FFu));
            r.sport = PortRange{lo, hi < lo ? std::uint16_t{65535} : hi};
        }
        r.verdict = (roll & 64u) ? RuleVerdict::kDrop : RuleVerdict::kAccept;
        seq.add_rule(r);
        comp.add_rule(r);
    }

    for (int i = 0; i < 2000; ++i) {
        RuleChain::Key k;
        const std::uint32_t roll = next();
        k.proto = (roll & 1u) ? kUdp : ((roll & 2u) ? kTcp : 1);
        k.src = next();
        k.dst = next();
        k.sport = static_cast<std::uint16_t>(next());
        k.dport = static_cast<std::uint16_t>(next());
        ASSERT_EQ(seq.evaluate(k), comp.evaluate_compiled(k))
            << "key " << i << " diverged";
    }
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq.hits(i), comp.hits(i)) << "rule " << i;
    EXPECT_EQ(seq.default_hits(), comp.default_hits());
}

// Mutating the chain invalidates the compiled form; the rebuilt
// classifier must reflect the new rule list.
TEST(RuleChain, RecompilesAfterRuleChanges) {
    RuleChain chain;
    chain.add_rule(udp_dport_rule(80, 80, RuleVerdict::kDrop));
    const auto k = udp_key(net::Ipv4Addr(10, 0, 0, 1), 1,
                           net::Ipv4Addr(10, 0, 0, 2), 80);
    EXPECT_EQ(chain.evaluate_compiled(k), RuleVerdict::kDrop);

    chain.clear();
    EXPECT_EQ(chain.evaluate_compiled(k), RuleVerdict::kAccept);

    chain.add_rule(udp_dport_rule(80, 80, RuleVerdict::kDrop));
    EXPECT_EQ(chain.evaluate_compiled(k), RuleVerdict::kDrop);
}
