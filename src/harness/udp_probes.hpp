// UDP binding-timeout probes UDP-1..5 (paper section 3.2.1) plus the
// UDP-4 port-allocation observation. Each measurement repeats a modified
// binary search several times and reports the per-repetition results,
// exactly as the paper plots medians with quartile error bars.
#pragma once

#include <functional>
#include <vector>

#include "harness/binding_search.hpp"
#include "harness/testbed.hpp"
#include "util/stats.hpp"

namespace gatekit::harness {

/// Traffic pattern applied to the binding under test.
enum class UdpPattern {
    SolitaryOutbound, ///< UDP-1: one packet out, nothing back
    InboundRefresh,   ///< UDP-2: one packet out, server stream back
    Bidirectional,    ///< UDP-3: client answers every server packet
};

/// Per-trial robustness against lossy links, default-off. Creation
/// resends are confirmed against the server's receive counter (the
/// testbed's management-link view), so a lost binding-creation packet is
/// detected instead of probing a stale peer; resends re-anchor the gap
/// clock at the last send, bounding the measurement error to
/// creation_retries * creation_wait (keep that below the search
/// resolution). A probe that draws no reply re-runs the trial from the
/// binding-creation step with the same gap — by the time the loss is
/// noticed the binding has aged past the nominal gap, so re-probing it
/// in place would bias the measured timeout short near the boundary.
struct UdpRetryPolicy {
    int creation_retries = 0; ///< extra binding-creation sends per trial
    sim::Duration creation_wait{std::chrono::milliseconds(250)};
    int probe_retries = 0; ///< extra inbound probes per trial
    bool enabled() const {
        return creation_retries > 0 || probe_retries > 0;
    }
};

struct UdpProbeConfig {
    int repetitions = 9; ///< paper used 55-100; each is a full search
    std::uint16_t server_port = 34567;
    sim::Duration grace{std::chrono::seconds(3)}; ///< inbound-probe wait
    /// First guess 16 s, cutoff 1 h, 1 s resolution: the defaults.
    SearchParams search;
    UdpRetryPolicy retry;
};

struct UdpTimeoutResult {
    std::vector<double> samples_sec; ///< one converged value per repetition
    // Robustness counters, aggregated across repetitions.
    int creation_retries = 0; ///< binding-creation packets re-sent
    int probe_retries = 0;    ///< inbound probes re-sent
    int search_retries = 0;   ///< whole trials re-run by the watchdog
    int search_giveups = 0;   ///< searches abandoned (gave_up results)
    stats::Summary summary() const { return stats::summarize(samples_sec); }
};

/// Port-allocation behavior derived from the UDP-1 procedure (UDP-4).
struct PortReuseResult {
    bool preserves_source_port = false;
    /// Meaningful only when preserves_source_port: did the binding created
    /// right after an observed expiry keep the same external port?
    bool reuses_expired_binding = false;
    std::vector<std::uint16_t> observed_ports; ///< per trial, diagnostics
};

/// Measure the binding timeout of one device under the given pattern.
/// Completion is signalled via callback; drive the event loop to finish.
void measure_udp_timeout(Testbed& tb, int slot, UdpPattern pattern,
                         const UdpProbeConfig& config,
                         std::function<void(UdpTimeoutResult)> done);

/// UDP-4: observe port preservation/reuse using the UDP-1 procedure.
void measure_port_reuse(Testbed& tb, int slot, const UdpProbeConfig& config,
                        std::function<void(PortReuseResult)> done);

} // namespace gatekit::harness
