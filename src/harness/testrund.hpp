// testrund: the measurement orchestrator (the paper's client/server
// daemon pair). Testrund runs any subset of the study's tests against one
// device; ShardScheduler runs it once per device of a roster and merges
// the per-device results the figures are built from. Coordination uses
// the out-of-band management link, modeled as direct invocation between
// the client- and server-side probe halves.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gateway/profile.hpp"
#include "harness/dns_probe.hpp"
#include "harness/futurework_probes.hpp"
#include "harness/icmp_probe.hpp"
#include "harness/tcp_probes.hpp"
#include "harness/transport_probe.hpp"
#include "harness/udp_probes.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "sim/link.hpp"

namespace gatekit::harness {

/// Supervisor classification of one completed (device, test) unit.
enum class UnitStatus {
    Ok,          ///< completed normally (possibly after a soft retry)
    Degraded,    ///< hard deadline hit; partial results were salvaged
    GaveUp,      ///< hard deadline hit and the unit never reported back
    Quarantined, ///< not run: the device was quarantined earlier
};

const char* to_string(UnitStatus s);
bool unit_status_from_string(std::string_view s, UnitStatus& out);

/// Per-unit supervisor record; one per planned unit, in execution order.
struct UnitReport {
    std::string unit; ///< "udp1".."binding_rate", "udp5:<service>"
    UnitStatus status = UnitStatus::Ok;
    int attempts = 1;
    std::string reason; ///< machine-readable, "" when ok
    std::int64_t t_start_ns = 0;
    std::int64_t t_end_ns = 0;
};

/// Campaign supervision: per-unit deadline budgets and retry/quarantine
/// policy. Everything defaults OFF — with deadlines at zero the
/// supervisor schedules no events, so an unsupervised campaign's event
/// stream (and every figure built from it) is bit-for-bit unchanged.
/// Journaling is the shard scheduler's concern
/// (ShardScheduler::Options::journal_path).
struct SupervisorPolicy {
    /// Soft per-unit budget: when a unit runs past this the supervisor
    /// dumps the flight recorder, cancels the attempt cooperatively, and
    /// re-runs the unit after `retry_backoff` (up to `max_attempts`
    /// total). Zero disables.
    sim::Duration soft_deadline{0};
    /// Hard per-unit budget, measured from the unit's first attempt:
    /// the unit is cancelled and classified degraded (partial results
    /// arrived) or gave_up (nothing came back within `hard_grace`).
    /// Zero disables.
    sim::Duration hard_deadline{0};
    int max_attempts = 2;
    sim::Duration retry_backoff{std::chrono::seconds(5)};
    /// How long after the hard deadline a cancelled unit may still
    /// deliver partial results before the supervisor force-advances.
    sim::Duration hard_grace{std::chrono::seconds(5)};
    /// Consecutive non-ok units before the device is quarantined and its
    /// remaining units skipped (the campaign itself continues). <= 0
    /// disables quarantine.
    int quarantine_after = 3;

    bool soft_enabled() const { return soft_deadline > sim::Duration::zero(); }
    bool hard_enabled() const { return hard_deadline > sim::Duration::zero(); }
};

/// Per-device impairment RNG stream derivation. Every (device, link,
/// direction) draws from its own generator seeded as
///
///   splitmix64(campaign_seed ^ tag),  tag = device * 4 + wan * 2 + dir
///
/// so a device's fate sequence depends only on the campaign seed and its
/// own identity — never on which devices ran before it or on how the
/// campaign is sharded across workers. The result is masked to 62 bits;
/// the mask is part of every impaired campaign's fate sequence.
std::uint64_t impair_seed_for(std::uint64_t campaign_seed, int device,
                              bool wan_link, int direction);

/// Declarative campaign-wide link impairments. When `wan.any()` the
/// runner installs them on its device's WAN link (both directions)
/// before the first unit, seeded per device by impair_seed_for.
/// Declaring impairments here — rather than poking Link::set_impairments
/// by hand — is what lets a sharded campaign reproduce them inside each
/// shard's private testbed and the journal fingerprint bind to them.
struct CampaignImpairments {
    sim::LinkImpairments wan;
    std::uint64_t seed = 0x6761'7465'6b69'7421ULL;
    bool any() const { return wan.any(); }
};

/// A shard's place in the campaign. ShardScheduler builds each shard a
/// one-device testbed whose slot 0 is device number `device_base + 1`
/// of the full roster (Testbed addressing derives from the global
/// number, so the wire bytes match the device's slice of a full-roster
/// bring-up); impairment RNG streams always use the global index.
/// Deliberately excluded from the campaign fingerprint — it places a
/// device, it does not measure it.
struct ShardSpec {
    /// Shard id. The runner does not read it; it stays declared because
    /// existing callers (the campaign benchmark) still assign it.
    int index = -1;
    /// Testrund measures testbed slot 0 only and throws on any other
    /// range: first_device must be 0 and last_device 0 or -1. Both stay
    /// declared because existing callers (the campaign benchmark) still
    /// assign them.
    int first_device = 0;
    int last_device = -1;
    /// Global device index of testbed slot 0; seeds its impairment RNG
    /// streams.
    int device_base = 0;
    /// Whole-campaign fingerprint. The runner does not read it either;
    /// the journal header is the scheduler's, which hashes the roster
    /// once per campaign.
    std::string fingerprint;
};

/// Which measurements to run (each maps to a paper test).
struct CampaignConfig {
    bool udp1 = false;
    bool udp2 = false;
    bool udp3 = false;
    bool udp4 = false;
    bool udp5 = false;
    bool tcp1 = false;
    bool tcp2 = false; ///< also produces TCP-3 delay results
    bool tcp4 = false;
    bool icmp = false;
    bool transports = false;
    bool dns = false;
    bool quirks = false;     ///< future work: TTL / Record Route / hairpin
    bool stun = false;       ///< future work: STUN success + mapping
    bool binding_rate = false; ///< future work: binding creation rate
    int binding_rate_count = 200;

    UdpProbeConfig udp;
    TcpTimeoutConfig tcp_timeout;
    ThroughputConfig throughput;
    MaxBindingsConfig max_bindings;

    SupervisorPolicy supervisor;

    /// Campaign-wide WAN impairments (default: none installed).
    CampaignImpairments impair;

    /// The shard this device is (default: a one-device campaign).
    ShardSpec shard;

    /// Harness self-profiler (non-owning; null = off). When set the
    /// runner brackets every live unit with wall-clock stamps. Absent
    /// from the campaign fingerprint by construction — profiling reads
    /// the host clock but never schedules events, so the measurement
    /// stream is byte-identical either way.
    obs::ProfileCollector* profiler = nullptr;

    /// UDP-5 well-known services (paper Figure 6).
    std::vector<std::pair<std::string, std::uint16_t>> udp5_services{
        {"dns", 53}, {"http", 80}, {"ntp", 123}, {"snmp", 161}, {"tftp", 69}};

    /// The paper's core measurement set (sections 3.2.1-3.2.3): UDP-1..5,
    /// TCP-1/2/4 (TCP-3 rides on TCP-2), ICMP translation, SCTP/DCCP
    /// support, and the DNS proxy. The future-work probes (quirks, STUN,
    /// binding rate) stay off — use everything() to include them.
    static CampaignConfig all() {
        CampaignConfig c;
        c.udp1 = c.udp2 = c.udp3 = c.udp4 = c.udp5 = true;
        c.tcp1 = c.tcp2 = c.tcp4 = true;
        c.icmp = c.transports = c.dns = true;
        return c;
    }

    /// Every measurement the harness implements: all() plus the paper's
    /// section-5 future-work probes.
    static CampaignConfig everything() {
        CampaignConfig c = all();
        c.quirks = c.stun = c.binding_rate = true;
        return c;
    }
};

struct DeviceResults {
    std::string tag;
    UdpTimeoutResult udp1, udp2, udp3;
    PortReuseResult udp4;
    std::map<std::string, UdpTimeoutResult> udp5; ///< service -> result
    TcpTimeoutResult tcp1;
    ThroughputResult tcp2; ///< includes the TCP-3 delay medians
    MaxBindingsResult tcp4;
    IcmpProbeResult icmp;
    TransportSupportResult transports;
    DnsProbeResult dns;
    QuirksResult quirks;
    StunProbeResult stun;
    BindingRateResult binding_rate;
    /// Supervisor verdicts, one per planned unit in execution order.
    /// Every unit is listed with status ok when supervision is off.
    std::vector<UnitReport> units;

    bool quarantined() const {
        for (const auto& u : units)
            if (u.status == UnitStatus::Quarantined) return true;
        return false;
    }
};

/// Run a campaign against the one device of a testbed; the testbed
/// must hold exactly one device (ShardScheduler builds such a testbed
/// per roster device). Tests run sequentially (the paper ran most tests
/// in parallel across devices and throughput alone — in virtual time
/// the distinction costs nothing and sequential keeps flows apart).
class Testrund {
public:
    explicit Testrund(Testbed& tb) : tb_(tb) {}

    /// Start the testbed if needed, run, and drive the loop to
    /// completion. Returns the device's results as a one-element
    /// vector. Throws std::invalid_argument when the testbed does not
    /// hold exactly one device or `config.shard` names another slot.
    std::vector<DeviceResults> run_blocking(const CampaignConfig& config);

private:
    struct Runner;
    Testbed& tb_;
};

/// Device-sharded campaign executor. One shard per roster device; each
/// shard owns a full private stack — EventLoop, a ONE-device Testbed
/// whose addressing derives from the device's global roster number (so
/// its wire bytes match that device's slice of a full-roster bring-up),
/// optional metrics registry + tracer, and per-device impairment RNG
/// streams — and measures only its own device. Because a shard's
/// simulation never reads another shard's state, its outputs are a pure
/// function of (device profile, config, global index): total bring-up
/// work is linear in the roster, and the worker count changes
/// wall-clock time and nothing else. Results, metrics, traces, and
/// journal records are merged incrementally in canonical device order
/// as a completion frontier advances — per-shard state is released as
/// soon as the frontier passes it, so memory stays flat in the roster
/// size — and every output artifact is byte-identical at any worker
/// count. The device is the unit of resume: a killed campaign takes the
/// journaled devices' results from their records and reruns every
/// other device from bring-up.
class ShardScheduler {
public:
    struct Options {
        /// Full device roster, slot order (= canonical merge order).
        std::vector<gateway::DeviceProfile> roster;
        /// Campaign to run. `config.shard` is owned by the scheduler and
        /// overwritten per shard.
        CampaignConfig config;
        /// Worker threads; clamped to [1, roster size]. 1 = run the
        /// shards sequentially on the calling thread (no threads spawn).
        int workers = 1;
        /// Journal path ("" = no journal; schema gatekit.journal.v2). As
        /// the completion frontier reaches device k, its record is
        /// appended and flushed, so the journal is always a header plus
        /// the records of devices 0..k.
        std::string journal_path;
        /// Resume from `journal_path` (written at ANY worker count): the
        /// recorded devices' results are handed out from their records
        /// with no bring-up, and every other device runs. A torn final
        /// line is dropped; a journal of another campaign, roster or
        /// schema, or with any other malformed line, is refused. With no
        /// journal on disk the campaign starts fresh.
        bool resume = false;
        /// Collect per-shard metrics and merge them into Output::metrics.
        bool metrics = false;
        /// Merged trace JSONL path ("" = tracing off). Shard k streams
        /// to segment_path(trace_path, k); segments are concatenated in
        /// device order as the frontier advances. Flight-recorder dumps
        /// land at <segment>.flight.<n>.jsonl and are listed — in
        /// canonical device order, identical at any worker count — in
        /// <trace_path>.flight.manifest.
        std::string trace_path;
        /// Merged time-series sidecar path ("" = off; schema
        /// gatekit.timeseries.v1). Shard k samples its private registry
        /// every `timeseries_interval` of SIM time into
        /// segment_path(timeseries_path, k); segments are concatenated
        /// in device order as the frontier advances, exactly like trace
        /// segments, so the merged stream is byte-identical at any
        /// worker count. Implies a per-shard registry even when
        /// `metrics` is false.
        std::string timeseries_path;
        sim::Duration timeseries_interval{std::chrono::seconds(1)};
        /// Harness self-profiler sidecar path ("" = off; schema
        /// gatekit.profile.v1): wall-clock spans per (device, unit),
        /// per-shard totals with worker attribution, and a
        /// worker-utilization/shard-skew summary. The one artifact that
        /// is NOT byte-gated — it records wall time by design. Campaign
        /// results remain byte-identical with it on or off.
        std::string profile_path;
        /// Progress lines ("[gatekit] shard k/n (tag) done") to stderr.
        bool verbose = false;
        /// Streaming consumer: when set, each device's results are
        /// handed over as the completion frontier passes it (canonical
        /// device order, serialized — never concurrently) and
        /// Output::results stays empty. This is what keeps a
        /// 10k-gateway campaign from holding every DeviceResults alive
        /// until the end.
        std::function<void(int device, DeviceResults&&)> on_result;
    };

    struct Output {
        /// Per-device results, canonical roster order. Empty when
        /// Options::on_result streamed them instead.
        std::vector<DeviceResults> results;
        /// Merged registry; null unless Options::metrics.
        std::unique_ptr<obs::MetricsRegistry> metrics;
    };

    /// Run the campaign. Throws (after joining every worker) if any
    /// shard fails; the journal keeps every device the frontier passed,
    /// so a rerun with `resume` takes them from it instead of
    /// re-measuring.
    static Output run(const Options& opts);

    /// Per-shard segment path: "<path>.shard<k>".
    static std::string segment_path(const std::string& path, int shard);

    /// Transient-buffer accounting for a streaming merge: the merge
    /// must never hold more than one fixed-size chunk of any segment in
    /// memory, whatever the segment size.
    struct MergeStats {
        std::size_t peak_buffer_bytes = 0; ///< largest transient buffer
        std::uint64_t segments = 0;        ///< segments consumed
        std::uint64_t bytes = 0;           ///< payload bytes written
    };

    /// Concatenate trace segments 0..n_segments-1 of `path` (pure
    /// streamed concatenation — a one-device shard can only emit its
    /// own device's and host-level events) and remove them.
    static void merge_traces(const std::string& path, int n_segments,
                             MergeStats* stats = nullptr);
};

} // namespace gatekit::harness
