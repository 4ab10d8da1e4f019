// TCP measurements: TCP-1 binding timeouts (binary search with a 24 h
// cutoff), TCP-2 bulk throughput (upload / download / bidirectional),
// TCP-3 queuing delay via timestamps embedded every 2 KB of the TCP-2
// payload, and TCP-4 maximum concurrent bindings to one server port.
#pragma once

#include <functional>
#include <vector>

#include "harness/binding_search.hpp"
#include "harness/testbed.hpp"
#include "util/stats.hpp"

namespace gatekit::harness {

// --- TCP-1 ----------------------------------------------------------------

struct TcpTimeoutConfig {
    int repetitions = 3;
    std::uint16_t server_port = 20001;
    sim::Duration grace{std::chrono::seconds(30)};
    SearchParams search{.first_guess = std::chrono::minutes(2),
                        .hi_limit = std::chrono::hours(24),
                        .resolution = std::chrono::seconds(1),
                        .retry = {},
                        .tracer = nullptr,
                        .trace_device = {},
                        .cancel = {}};
    /// Extra whole-trial attempts when the connection cannot even be
    /// established (lossy links exhausting the stack's own SYN
    /// retransmissions, stalled gateways). Default-off: a failed connect
    /// reads as "expired", as before.
    int connect_retries = 0;
    sim::Duration connect_backoff{std::chrono::seconds(2)};
};

struct TcpTimeoutResult {
    std::vector<double> samples_sec;
    bool exceeded_limit = false; ///< binding outlived the 24 h cutoff
    // Robustness counters, aggregated across repetitions.
    int connect_retries = 0; ///< trials re-run after failed establishment
    int search_retries = 0;  ///< whole trials re-run by the watchdog
    int search_giveups = 0;  ///< searches abandoned (gave_up results)
    stats::Summary summary() const { return stats::summarize(samples_sec); }
};

void measure_tcp_timeout(Testbed& tb, int slot,
                         const TcpTimeoutConfig& config,
                         std::function<void(TcpTimeoutResult)> done);

// --- TCP-2 / TCP-3 ----------------------------------------------------------

struct ThroughputConfig {
    std::size_t bytes = 100'000'000; ///< the paper's 100 MB bulk transfer
    sim::Duration time_limit{std::chrono::seconds(300)};
    std::uint16_t port_base = 5001;
    /// Cooperative cancellation (supervisor hard deadline): in-flight
    /// transfer legs finish early with partial byte counts. Null = never.
    std::shared_ptr<const bool> cancel;
};

/// One direction of one transfer.
struct TransferResult {
    double mbps = 0.0;
    double delay_ms = 0.0; ///< median of normalized timestamp deltas
    std::uint64_t bytes = 0;
    double duration_sec = 0.0;
    bool completed = false;
};

struct ThroughputResult {
    TransferResult upload;        ///< client -> server alone
    TransferResult download;      ///< server -> client alone
    TransferResult upload_bidir;  ///< client -> server while downloading
    TransferResult download_bidir;///< server -> client while uploading
};

void measure_throughput(Testbed& tb, int slot, const ThroughputConfig& config,
                        std::function<void(ThroughputResult)> done);

// --- TCP-4 ----------------------------------------------------------------

struct MaxBindingsConfig {
    int limit = 2048; ///< stop probing above this many bindings
    std::uint16_t server_port = 9100;
    /// Cooperative cancellation (supervisor hard deadline): stop opening
    /// connections and report the partial count. Null = never.
    std::shared_ptr<const bool> cancel;
};

struct MaxBindingsResult {
    int max_bindings = 0;
    bool hit_probe_limit = false;
};

void measure_max_bindings(Testbed& tb, int slot,
                          const MaxBindingsConfig& config,
                          std::function<void(MaxBindingsResult)> done);

} // namespace gatekit::harness
