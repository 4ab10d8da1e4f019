// Off-path attack battery: every packet is delivered through the real
// WAN-side path — netif -> rule chain -> NAT -> forward — from
// spoofed sources the gateway has no reason to trust, reproducing the
// ReDAN remote-DoS scenarios (Feng et al., arXiv:2410.21984):
//
//   1. icmp_teardown   spoofed Port-Unreachable errors quoting guessed
//                      internal tuples, swept across the external port
//                      space, to inject errors into (or tear down) a
//                      victim's UDP binding from off-path;
//   2. port_exhaustion a coerced LAN host races the victim's pool range
//                      and squats its source port, so PreserveSourcePort
//                      devices lose mappings and Sequential devices run
//                      out of bindings;
//   3. syn_confusion   unsolicited WAN SYN/ACK/RST sweeps poison the
//                      transitory state of a victim's in-progress
//                      handshake (zombie refresh, bogus promotion to
//                      established, off-path RST teardown);
//   4. quote_abuse     structurally malformed / truncated embedded
//                      quotes that lax devices still act on and relay.
//
// Each attack is paired with the DeviceProfile hardening knob that
// closes it (icmp_error_rate_limit, per_host_binding_budget,
// wan_syn_policy, validate_embedded_binding); bench/attack_matrix runs
// the battery in default and hardened postures over all 34 calibrated
// profiles and scores the sampled population.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/testbed.hpp"

namespace gatekit::harness {

struct AttackConfig {
    /// External ports the ICMP error sweep covers, centered on the
    /// victim's port (which sits at index sweep_width/2 — deliberately
    /// past the hardened per-second error budget).
    int sweep_width = 96;
    /// Pool flows the coerced host opens before squatting the victim's
    /// source port; chosen to exceed the hardened per-host budget so the
    /// squat itself is refused on hardened devices.
    int steal_prefix = 72;
    /// Extra outbound attempts past the binding cap during exhaustion.
    int exhaust_margin = 64;
    /// Half-width of the TCP sweeps around the victim's external port.
    int syn_halfwidth = 2;
};

struct AttackOutcome {
    /// Machine-readable verdict token (e.g. "torn-down", "safe").
    std::string verdict = "safe";
    bool vulnerable = false;
    /// Attack-specific detail counter (errors injected, bindings burned,
    /// hardening refusals observed — see each attack's implementation).
    std::uint64_t detail = 0;
};

struct AttackReport {
    std::string device;
    AttackOutcome icmp_teardown;
    AttackOutcome port_exhaustion;
    AttackOutcome syn_confusion;
    AttackOutcome quote_abuse;
    /// Harness invariant violations (victim flow never came up, oracle
    /// lost the binding, ...). Empty means every verdict is trustworthy.
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
    bool any_vulnerable() const {
        return icmp_teardown.vulnerable || port_exhaustion.vulnerable ||
               syn_confusion.vulnerable || quote_abuse.vulnerable;
    }
};

/// Run all four attacks against testbed slot `slot`. Synchronous: drives
/// the event loop internally. The testbed must be started and ready; the
/// battery opens its own victim flows and cleans up its observers, but
/// floods deliberately leave the slot's binding tables saturated (the
/// exhaustion attack runs last for that reason).
AttackReport run_attacks(Testbed& tb, int slot, const AttackConfig& cfg = {});

} // namespace gatekit::harness
