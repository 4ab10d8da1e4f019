// Shared scaffolding for the figure/table regeneration binaries: build
// the full 34-device testbed, run the requested campaign subset, render.
//
// Environment knobs:
//   GATEKIT_REPS    repetitions per binding-timeout search (default 9;
//                   the paper used 55-100 — results converge long before)
//   GATEKIT_BYTES   bulk transfer size for TCP-2/3 (default 25 MB;
//                   paper used 100 MB — the throughput estimate is
//                   rate-limited, not size-limited, so this only trades
//                   run time)
//   GATEKIT_DEVICES limit to the first N devices (debugging aid);
//                   anything but an integer in [1, device count] aborts
//   GATEKIT_CSV     when set, also write gatekit_<name>.csv
//   GATEKIT_METRICS metrics snapshot path, written when the campaign
//                   finishes (a .csv suffix selects CSV, else JSON)
//   GATEKIT_TRACE   stream trace events to this path as JSONL; flight-
//                   recorder dumps land beside it at <path>.flight.<n>.jsonl
//   GATEKIT_JOURNAL campaign journal path (JSONL, schema
//                   gatekit.journal.v2), one record per finished device
//   GATEKIT_RESUME  when set, take the devices GATEKIT_JOURNAL records
//                   from it and rerun every other device
//   GATEKIT_WORKERS worker threads for the device-sharded campaign
//                   scheduler (default 1). Every output artifact —
//                   figures, CSV, journal, metrics, trace — is
//                   byte-identical at any worker count; anything but an
//                   integer in [1, 256] aborts
//   GATEKIT_TIMESERIES  streaming time-series sidecar path (JSONL,
//                   schema gatekit.timeseries.v2): counters/gauges
//                   sampled per shard on a sim-time cadence, merged in
//                   canonical device order (byte-identical at any
//                   worker count)
//   GATEKIT_TS_INTERVAL  time-series sampling interval in SIM-time
//                   milliseconds (default 1000); anything but an
//                   integer in [1, 3600000] aborts
//   GATEKIT_PROFILE harness self-profiler sidecar path (JSONL, schema
//                   gatekit.profile.v1): wall-clock spans per
//                   (device, unit), worker utilization, shard skew.
//                   The one artifact that is NOT byte-gated (it
//                   records wall time by design)
#pragma once

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "devices/profiles.hpp"
#include "harness/testrund.hpp"
#include "report/ascii_plot.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"

namespace gatekit::bench {

/// Whole contents of the file at `path`; nullopt when it cannot be opened.
inline std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
}

inline int env_int(const char* name, int def) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoi(v) : def;
}

inline std::size_t env_size(const char* name, std::size_t def) {
    const char* v = std::getenv(name);
    return v != nullptr ? static_cast<std::size_t>(std::atoll(v)) : def;
}

inline bool env_flag(const char* name) {
    return std::getenv(name) != nullptr;
}

/// GATEKIT_DEVICES: first-N device limit, or 0 when unset (all devices).
/// A typo here used to silently run the full 34-device campaign (atoi
/// returns 0 on garbage), so the parse is strict: the whole string must
/// be an integer in [1, max] or the bench exits with a clear error.
inline int env_device_limit(int max) {
    const char* v = std::getenv("GATEKIT_DEVICES");
    if (v == nullptr) return 0;
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (errno != 0 || end == v || *end != '\0' || n < 1 || n > max) {
        std::cerr << "[gatekit] invalid GATEKIT_DEVICES='" << v
                  << "': expected an integer in [1, " << max << "]\n";
        std::exit(2);
    }
    return static_cast<int>(n);
}

/// GATEKIT_WORKERS: shard worker-thread count, default 1 (shards run
/// sequentially on the calling thread). Strict parse, like
/// GATEKIT_DEVICES: the whole string must be an integer in [1, 256] or
/// the bench exits with a clear error.
inline int env_workers() {
    const char* v = std::getenv("GATEKIT_WORKERS");
    if (v == nullptr) return 1;
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (errno != 0 || end == v || *end != '\0' || n < 1 || n > 256) {
        std::cerr << "[gatekit] invalid GATEKIT_WORKERS='" << v
                  << "': expected an integer in [1, 256]\n";
        std::exit(2);
    }
    return static_cast<int>(n);
}

/// GATEKIT_TS_INTERVAL: time-series sampling cadence in sim-time
/// milliseconds, default 1000. Strict parse, like GATEKIT_WORKERS.
inline sim::Duration env_ts_interval() {
    const char* v = std::getenv("GATEKIT_TS_INTERVAL");
    if (v == nullptr) return std::chrono::seconds(1);
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (errno != 0 || end == v || *end != '\0' || n < 1 || n > 3'600'000) {
        std::cerr << "[gatekit] invalid GATEKIT_TS_INTERVAL='" << v
                  << "': expected milliseconds in [1, 3600000]\n";
        std::exit(2);
    }
    return std::chrono::milliseconds(n);
}

/// Build the Figure-1 testbed with every profiled device and run the
/// campaign, device-sharded across GATEKIT_WORKERS threads; returns
/// per-device results in Table 1 order. Every output artifact (figures,
/// CSV, journal, metrics snapshot, trace) is byte-identical at any
/// worker count.
inline std::vector<harness::DeviceResults>
run_campaign(const harness::CampaignConfig& config) {
    harness::ShardScheduler::Options opts;
    const auto& profiles = devices::all_profiles();
    const int limit =
        env_device_limit(static_cast<int>(profiles.size()));
    for (const auto& profile : profiles) {
        if (limit > 0 && static_cast<int>(opts.roster.size()) >= limit)
            break;
        opts.roster.push_back(profile);
    }
    opts.config = config;
    opts.workers = env_workers();
    if (const char* journal = std::getenv("GATEKIT_JOURNAL")) {
        opts.journal_path = journal;
        opts.resume = env_flag("GATEKIT_RESUME");
    }
    const char* metrics = std::getenv("GATEKIT_METRICS");
    if (metrics != nullptr) {
        // Fail fast: an unwritable snapshot path should abort the run
        // before hours of campaign, not after (the snapshot itself is
        // rewritten when the campaign finishes).
        std::ofstream probe(metrics, std::ios::binary | std::ios::trunc);
        if (!probe.good()) {
            std::cerr << "[gatekit] cannot open GATEKIT_METRICS path '"
                      << metrics << "'\n";
            std::exit(2);
        }
        opts.metrics = true;
    }
    if (const char* trace = std::getenv("GATEKIT_TRACE"))
        opts.trace_path = trace;
    if (const char* ts = std::getenv("GATEKIT_TIMESERIES")) {
        opts.timeseries_path = ts;
        opts.timeseries_interval = env_ts_interval();
    }
    if (const char* prof = std::getenv("GATEKIT_PROFILE"))
        opts.profile_path = prof;
    opts.verbose = true;
    std::cerr << "[gatekit] running measurement campaign over "
              << opts.roster.size() << " devices (" << opts.workers
              << (opts.workers == 1 ? " worker" : " workers") << ")...\n";
    auto out = harness::ShardScheduler::run(opts);
    if (metrics != nullptr && out.metrics != nullptr) {
        const std::string path = metrics;
        bool ok = false;
        const auto n = path.size();
        if (n >= 4 && path.compare(n - 4, 4, ".csv") == 0) {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f << out.metrics->to_csv();
            ok = f.good();
        } else {
            ok = out.metrics->save_json(path);
        }
        if (ok)
            std::cerr << "[gatekit] wrote metrics snapshot ("
                      << out.metrics->size() << " series) to " << path
                      << "\n";
        else
            std::cerr << "[gatekit] FAILED to write metrics snapshot to "
                      << path << "\n";
    }
    return std::move(out.results);
}

/// Default campaign knobs shared by the benches.
inline harness::CampaignConfig base_config() {
    harness::CampaignConfig cfg;
    cfg.udp.repetitions = env_int("GATEKIT_REPS", 9);
    cfg.tcp_timeout.repetitions =
        std::max(1, env_int("GATEKIT_REPS", 9) / 3);
    cfg.throughput.bytes = env_size("GATEKIT_BYTES", 25'000'000);
    return cfg;
}

/// Timeout-summary -> plot point with quartile error bars.
inline report::PlotPoint
timeout_point(const std::string& tag, const harness::UdpTimeoutResult& r) {
    const auto s = r.summary();
    return report::PlotPoint{tag, s.median, s.q1, s.q3};
}

inline void maybe_csv(const std::string& name,
                      const report::CsvWriter& csv) {
    if (!env_flag("GATEKIT_CSV")) return;
    const std::string path = "gatekit_" + name + ".csv";
    csv.save(path);
    std::cerr << "[gatekit] wrote " << path << "\n";
}

} // namespace gatekit::bench
