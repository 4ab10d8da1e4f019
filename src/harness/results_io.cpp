#include "harness/results_io.hpp"

#include <array>
#include <concepts>
#include <cstdint>
#include <map>
#include <ranges>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace gatekit::harness {

using report::JsonValue;
using report::JsonWriter;

namespace {

// --- one field list per result struct ----------------------------------
// `v(key, member)` once per JSON field, in output order. `R` is the struct,
// const when writing and mutable when reading, so the writer and the
// reader below walk the same list and cannot drift apart.

template <class R, class T>
concept Is = std::same_as<std::remove_const_t<R>, T>;

template <Is<UdpTimeoutResult> R, class V> void fields(R& r, V&& v) {
    v("samples_sec", r.samples_sec);
    v("creation_retries", r.creation_retries);
    v("probe_retries", r.probe_retries);
    v("search_retries", r.search_retries);
    v("search_giveups", r.search_giveups);
}

template <Is<PortReuseResult> R, class V> void fields(R& r, V&& v) {
    v("preserves_source_port", r.preserves_source_port);
    v("reuses_expired_binding", r.reuses_expired_binding);
    v("observed_ports", r.observed_ports);
}

template <Is<TcpTimeoutResult> R, class V> void fields(R& r, V&& v) {
    v("samples_sec", r.samples_sec);
    v("exceeded_limit", r.exceeded_limit);
    v("connect_retries", r.connect_retries);
    v("search_retries", r.search_retries);
    v("search_giveups", r.search_giveups);
}

template <Is<TransferResult> R, class V> void fields(R& r, V&& v) {
    v("mbps", r.mbps);
    v("delay_ms", r.delay_ms);
    v("bytes", r.bytes);
    v("duration_sec", r.duration_sec);
    v("completed", r.completed);
}

template <Is<ThroughputResult> R, class V> void fields(R& r, V&& v) {
    v("upload", r.upload);
    v("download", r.download);
    v("upload_bidir", r.upload_bidir);
    v("download_bidir", r.download_bidir);
}

template <Is<MaxBindingsResult> R, class V> void fields(R& r, V&& v) {
    v("max_bindings", r.max_bindings);
    v("hit_probe_limit", r.hit_probe_limit);
}

template <Is<IcmpVerdict> R, class V> void fields(R& r, V&& v) {
    v("forwarded", r.forwarded);
    v("rst_instead", r.rst_instead);
    v("embedded_transport_ok", r.embedded_transport_ok);
    v("embedded_ip_checksum_ok", r.embedded_ip_checksum_ok);
}

template <Is<IcmpProbeResult> R, class V> void fields(R& r, V&& v) {
    v("udp", r.udp);
    v("tcp", r.tcp);
    v("query_error_forwarded", r.query_error_forwarded);
    v("flow_retries", r.flow_retries);
}

template <Is<TransportSupportResult> R, class V> void fields(R& r, V&& v) {
    v("sctp_connects", r.sctp_connects);
    v("sctp_data_ok", r.sctp_data_ok);
    v("dccp_connects", r.dccp_connects);
    v("sctp_action", r.sctp_action);
    v("dccp_action", r.dccp_action);
}

template <Is<DnsProbeResult> R, class V> void fields(R& r, V&& v) {
    v("udp_ok", r.udp_ok);
    v("tcp_connects", r.tcp_connects);
    v("tcp_answers", r.tcp_answers);
    v("tcp_upstream_udp", r.tcp_upstream_udp);
    v("big_udp_ok", r.big_udp_ok);
    v("truncated_seen", r.truncated_seen);
    v("dnssec_ready", r.dnssec_ready);
    v("big_udp_retries", r.big_udp_retries);
}

template <Is<QuirksResult> R, class V> void fields(R& r, V&& v) {
    v("decrements_ttl", r.decrements_ttl);
    v("honors_record_route", r.honors_record_route);
    v("hairpins_udp", r.hairpins_udp);
}

template <Is<StunProbeResult> R, class V> void fields(R& r, V&& v) {
    v("success", r.success);
    v("reflexive_correct", r.reflexive_correct);
    v("port_preserved", r.port_preserved);
    v("mapping", r.mapping);
}

template <Is<BindingRateResult> R, class V> void fields(R& r, V&& v) {
    v("attempted", r.attempted);
    v("established", r.established);
    v("bindings_per_sec", r.bindings_per_sec);
}

/// Supervisor reports are written (device_results_json) but never read
/// back: the journal carries them in its own entry fields.
template <Is<UnitReport> R, class V> void fields(R& r, V&& v) {
    v("unit", r.unit);
    v("status", r.status);
    v("attempts", r.attempts);
    v("reason", r.reason);
    v("t_start_ns", r.t_start_ns);
    v("t_end_ns", r.t_end_ns);
}

template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

/// Field-list visitor that serializes. Integers other than uint64, and
/// enums, are written through int64; structs become objects.
struct Writer {
    JsonWriter& jw;

    template <class T> void operator()(std::string_view key, const T& x) {
        jw.key(key);
        put(x);
    }

    void put(bool b) { jw.value(b); }
    void put(double d) { jw.value(d); }
    void put(std::uint64_t u) { jw.value(u); }
    template <Scalar T> void put(T x) {
        jw.value(static_cast<std::int64_t>(x));
    }
    void put(UnitStatus s) { jw.value(to_string(s)); }
    void put(const std::string& s) { jw.value(std::string_view(s)); }
    template <std::ranges::range Xs> void put(const Xs& xs) {
        jw.begin_array();
        for (const auto& x : xs) put(x);
        jw.end_array();
    }
    template <class T> void put(const std::map<std::string, T>& by_key) {
        jw.begin_object();
        for (const auto& [k, x] : by_key) (*this)(k, x);
        jw.end_object();
    }
    template <class T>
        requires std::is_class_v<T> && (!std::ranges::range<T>)
    void put(const T& r) {
        jw.begin_object();
        fields(r, *this);
        jw.end_object();
    }
};

/// Field-list visitor that decodes. Absent fields keep their current
/// values; an array shorter than a fixed-size member fills its prefix.
struct Reader {
    const JsonValue& v;

    template <class T> void operator()(std::string_view key, T& x) const {
        if (const JsonValue* f = v.find(key)) get(*f, x);
    }

    static void get(const JsonValue& j, bool& b) { b = j.as_bool(); }
    static void get(const JsonValue& j, double& d) { d = j.as_double(); }
    template <Scalar T> static void get(const JsonValue& j, T& x) {
        x = static_cast<T>(j.as_int());
    }
    template <class T>
    static void get(const JsonValue& j, std::vector<T>& xs) {
        xs.clear();
        for (const auto& x : j.array) get(x, xs.emplace_back());
    }
    template <class T, std::size_t N>
    static void get(const JsonValue& j, std::array<T, N>& xs) {
        for (std::size_t i = 0; i < N && i < j.array.size(); ++i)
            get(j.array[i], xs[i]);
    }
    template <class T>
        requires std::is_class_v<T>
    static void get(const JsonValue& j, T& r) {
        fields(r, Reader{j});
    }
};

// --- the unit table ----------------------------------------------------

/// What a unit's probe is launched with.
struct ProbeCall {
    Testbed& tb;
    int slot;
    const CampaignConfig& config;
    std::shared_ptr<const bool> cancel;
    const std::string* service; ///< the per-service unit's, else null

    /// The UDP probe configuration with the attempt's cancel token and,
    /// for the per-service unit, the service's server port.
    UdpProbeConfig udp() const {
        UdpProbeConfig cfg = config.udp;
        cfg.search.cancel = cancel;
        if (service != nullptr)
            for (const auto& [name, port] : config.udp5_services)
                if (name == *service) cfg.server_port = port;
        return cfg;
    }
};

template <class R> using Done = std::function<void(R)>;

/// One measurement unit: its name, the CampaignConfig flag that plans
/// it, the DeviceResults member its result lands in, and its probe.
/// `Slice` differs from the probe's result type `R` only for the
/// per-service unit, whose member maps service name -> result and whose
/// plan holds one "<name>:<service>" unit per configured service.
template <class R, class Slice = R> struct Unit {
    static constexpr bool kPerService = !std::is_same_v<R, Slice>;
    std::string_view name;
    bool CampaignConfig::*flag;
    Slice DeviceResults::*member;
    void (*probe)(const ProbeCall&, Done<R>);

    /// The result `service` names in `d`: the member itself, or one entry
    /// of the per-service map (a default result when a const `d` lacks
    /// it).
    template <class D> auto& slice(D& d, const std::string& service) const {
        auto& m = d.*member;
        if constexpr (!kPerService) {
            return m;
        } else if constexpr (!std::is_const_v<D>) {
            return m[service];
        } else {
            static const R kEmpty{};
            const auto it = m.find(service);
            return it != m.end() ? it->second : kEmpty;
        }
    }
};

template <UdpPattern P>
void udp_timeout(const ProbeCall& c, Done<UdpTimeoutResult> done) {
    measure_udp_timeout(c.tb, c.slot, P, c.udp(), std::move(done));
}

/// A probe that takes neither a configuration nor a cancel token.
template <class R, void (*Measure)(Testbed&, int, Done<R>)>
void single_shot(const ProbeCall& c, Done<R> done) {
    Measure(c.tb, c.slot, std::move(done));
}

/// The unit vocabulary, in execution order. unit_plan, launch_unit, the
/// journal payload codecs, device_results_json and the fingerprint's
/// flags all iterate this table; nothing else names a unit.
constexpr std::tuple kUnits{
    Unit<UdpTimeoutResult>{"udp1", &CampaignConfig::udp1,
                           &DeviceResults::udp1,
                           &udp_timeout<UdpPattern::SolitaryOutbound>},
    Unit<UdpTimeoutResult>{"udp2", &CampaignConfig::udp2,
                           &DeviceResults::udp2,
                           &udp_timeout<UdpPattern::InboundRefresh>},
    Unit<UdpTimeoutResult>{"udp3", &CampaignConfig::udp3,
                           &DeviceResults::udp3,
                           &udp_timeout<UdpPattern::Bidirectional>},
    Unit<PortReuseResult>{
        "udp4", &CampaignConfig::udp4, &DeviceResults::udp4,
        [](const ProbeCall& c, Done<PortReuseResult> done) {
            measure_port_reuse(c.tb, c.slot, c.udp(), std::move(done));
        }},
    Unit<UdpTimeoutResult, std::map<std::string, UdpTimeoutResult>>{
        "udp5", &CampaignConfig::udp5, &DeviceResults::udp5,
        &udp_timeout<UdpPattern::InboundRefresh>},
    Unit<TcpTimeoutResult>{
        "tcp1", &CampaignConfig::tcp1, &DeviceResults::tcp1,
        [](const ProbeCall& c, Done<TcpTimeoutResult> done) {
            TcpTimeoutConfig cfg = c.config.tcp_timeout;
            cfg.search.cancel = c.cancel;
            measure_tcp_timeout(c.tb, c.slot, cfg, std::move(done));
        }},
    Unit<ThroughputResult>{
        "tcp2", &CampaignConfig::tcp2, &DeviceResults::tcp2,
        [](const ProbeCall& c, Done<ThroughputResult> done) {
            ThroughputConfig cfg = c.config.throughput;
            cfg.cancel = c.cancel;
            measure_throughput(c.tb, c.slot, cfg, std::move(done));
        }},
    Unit<MaxBindingsResult>{
        "tcp4", &CampaignConfig::tcp4, &DeviceResults::tcp4,
        [](const ProbeCall& c, Done<MaxBindingsResult> done) {
            MaxBindingsConfig cfg = c.config.max_bindings;
            cfg.cancel = c.cancel;
            measure_max_bindings(c.tb, c.slot, cfg, std::move(done));
        }},
    Unit<IcmpProbeResult>{"icmp", &CampaignConfig::icmp, &DeviceResults::icmp,
                          &single_shot<IcmpProbeResult, measure_icmp>},
    Unit<TransportSupportResult>{
        "transports", &CampaignConfig::transports, &DeviceResults::transports,
        &single_shot<TransportSupportResult, measure_transport_support>},
    Unit<DnsProbeResult>{"dns", &CampaignConfig::dns, &DeviceResults::dns,
                         &single_shot<DnsProbeResult, measure_dns>},
    Unit<QuirksResult>{"quirks", &CampaignConfig::quirks,
                       &DeviceResults::quirks,
                       &single_shot<QuirksResult, measure_quirks>},
    Unit<StunProbeResult>{"stun", &CampaignConfig::stun, &DeviceResults::stun,
                          &single_shot<StunProbeResult, measure_stun>},
    Unit<BindingRateResult>{
        "binding_rate", &CampaignConfig::binding_rate,
        &DeviceResults::binding_rate,
        [](const ProbeCall& c, Done<BindingRateResult> done) {
            measure_binding_rate(c.tb, c.slot, c.config.binding_rate_count,
                                 std::move(done));
        }},
};

template <class F> void for_each_unit(F&& f) {
    std::apply([&](const auto&... u) { (f(u), ...); }, kUnits);
}

/// Call `f(entry, service)` for the table entry `unit` names ("<name>",
/// or "<name>:<service>" for the per-service unit); false when it names
/// none.
template <class F> bool with_unit(std::string_view unit, F&& f) {
    const std::size_t colon = unit.find(':');
    const bool has_service = colon != std::string_view::npos;
    const std::string service(has_service ? unit.substr(colon + 1) : "");
    const auto try_one = [&](const auto& u) {
        if (unit.substr(0, colon) != u.name || has_service != u.kPerService)
            return false;
        f(u, service);
        return true;
    };
    return std::apply(
        [&](const auto&... u) { return (try_one(u) || ...); }, kUnits);
}

} // namespace

std::vector<std::string> unit_plan(const CampaignConfig& config) {
    std::vector<std::string> plan;
    for_each_unit([&](const auto& u) {
        if (!(config.*u.flag)) return;
        if constexpr (std::remove_cvref_t<decltype(u)>::kPerService)
            for (const auto& [service, port] : config.udp5_services)
                plan.push_back(std::string(u.name) + ':' + service);
        else
            plan.emplace_back(u.name);
    });
    return plan;
}

void launch_unit(const std::string& unit, Testbed& tb, int slot,
                 const CampaignConfig& config,
                 std::shared_ptr<const bool> cancel, UnitDone done) {
    const bool known = with_unit(unit, [&](const auto& u,
                                           const std::string& service) {
        const ProbeCall call{tb, slot, config, std::move(cancel),
                             u.kPerService ? &service : nullptr};
        u.probe(call, [u, service, done = std::move(done)](auto r) {
            done([&](DeviceResults& d) {
                u.slice(d, service) = std::move(r);
            });
        });
    });
    GK_EXPECTS(known); // unit_plan names only table entries
}

std::string unit_payload_json(const DeviceResults& r,
                              const std::string& unit) {
    std::ostringstream out;
    JsonWriter jw(out);
    Writer w{jw};
    if (!with_unit(unit, [&](const auto& u, const std::string& service) {
            w.put(u.slice(r, service));
        }))
        return "null";
    return out.str();
}

bool apply_unit_payload(DeviceResults& r, const std::string& unit,
                        const report::JsonValue& payload) {
    return with_unit(unit, [&](const auto& u, const std::string& service) {
        Reader::get(payload, u.slice(r, service));
    });
}

std::string device_results_json(const DeviceResults& r) {
    std::ostringstream out;
    JsonWriter jw(out);
    Writer w{jw};
    jw.begin_object();
    w("tag", r.tag);
    for_each_unit([&](const auto& u) { w(u.name, r.*u.member); });
    w("units", r.units);
    jw.end_object();
    return out.str();
}

std::string campaign_fingerprint(const CampaignConfig& config,
                                 const std::vector<std::string>& devices) {
    // Canonical text of everything that shapes the measurement stream.
    // The supervisor's journal knobs are deliberately absent: a journaled
    // run and its resumed continuation share a fingerprint by design.
    std::ostringstream s;
    auto ns = [](sim::Duration d) { return d.count(); };
    s << "flags:";
    for_each_unit([&](const auto& u) { s << config.*u.flag; });
    s << ';' << "binding_rate_count:" << config.binding_rate_count << ';'
      << "udp:" << config.udp.repetitions << ',' << config.udp.server_port
      << ',' << ns(config.udp.grace) << ','
      << ns(config.udp.search.first_guess) << ','
      << ns(config.udp.search.hi_limit) << ','
      << ns(config.udp.search.resolution) << ','
      << ns(config.udp.search.retry.trial_timeout) << ','
      << config.udp.search.retry.max_attempts << ','
      << ns(config.udp.search.retry.backoff) << ','
      << config.udp.retry.creation_retries << ','
      << ns(config.udp.retry.creation_wait) << ','
      << config.udp.retry.probe_retries << ';'
      << "tcp1:" << config.tcp_timeout.repetitions << ','
      << config.tcp_timeout.server_port << ','
      << ns(config.tcp_timeout.grace) << ','
      << ns(config.tcp_timeout.search.first_guess) << ','
      << ns(config.tcp_timeout.search.hi_limit) << ','
      << ns(config.tcp_timeout.search.resolution) << ','
      << ns(config.tcp_timeout.search.retry.trial_timeout) << ','
      << config.tcp_timeout.search.retry.max_attempts << ','
      << ns(config.tcp_timeout.search.retry.backoff) << ','
      << config.tcp_timeout.connect_retries << ','
      << ns(config.tcp_timeout.connect_backoff) << ';'
      << "tcp2:" << config.throughput.bytes << ','
      << ns(config.throughput.time_limit) << ','
      << config.throughput.port_base << ';'
      << "tcp4:" << config.max_bindings.limit << ','
      << config.max_bindings.server_port << ';'
      << "sup:" << ns(config.supervisor.soft_deadline) << ','
      << ns(config.supervisor.hard_deadline) << ','
      << config.supervisor.max_attempts << ','
      << ns(config.supervisor.retry_backoff) << ','
      << ns(config.supervisor.hard_grace) << ','
      << config.supervisor.quarantine_after << ';';
    // Impairments shape every fate draw, so they bind the fingerprint —
    // but only when installed, keeping lossless campaigns' fingerprints
    // identical to the pre-impairment format. The ShardSpec is
    // deliberately absent: a shard's journal segment belongs to the same
    // campaign as the merged whole.
    if (config.impair.any()) {
        const auto& w = config.impair.wan;
        s << "impair:" << w.loss << ',' << w.duplicate << ',' << w.reorder
          << ',' << ns(w.reorder_hold) << ',' << ns(w.jitter) << ','
          << w.corrupt << ',' << config.impair.seed << ';';
    }
    s << "udp5:";
    for (const auto& [name, port] : config.udp5_services)
        s << name << '=' << port << ',';
    s << ";devices:";
    for (const auto& d : devices) s << d << ',';

    const std::string text = s.str();
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a 64
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    static const char* hex = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = hex[h & 0xf];
        h >>= 4;
    }
    return out;
}

} // namespace gatekit::harness
