// telemetry_report: post-run analyzer for the campaign telemetry
// sidecars. Reads the metrics snapshot (gatekit.metrics.v1), the
// streaming time-series (gatekit.timeseries.v2 JSONL), and the harness
// self-profile (gatekit.profile.v1 JSONL) and prints population tables:
//
//   - timeout CDFs reconstructed from the log-histogram sketches,
//     merged across devices per series (the merge is exact, so the
//     population percentiles equal what a single giant histogram would
//     have reported);
//   - a time-series summary: segments, series (declared once per
//     stream), sample lines, points, and the sim-time span decoded from
//     the interval ticks, read through obs::read_timeseries, which
//     validates the stream in the same pass;
//   - per-shard wall-clock skew and worker utilization;
//   - the top-N slowest (device, unit) spans.
//
// Modes:
//   telemetry_report <metrics.json> <timeseries.jsonl> <profile.jsonl>
//       analyze existing sidecars (missing files are skipped with a
//       note; at least one must exist).
//   telemetry_report --smoke <figure-bench-binary>
//       run the bench (normally fig03_udp1) on two devices with all
//       three sidecars enabled, schema-validate every artifact, check
//       the series, labels, samples and profile lines a UDP-1 campaign
//       cannot help but produce, then analyze. Exit-code gated; wired
//       into ctest as `telemetry_smoke`.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "report/json.hpp"

namespace {

using gatekit::bench::read_file;
using gatekit::obs::LogHistogram;
using gatekit::report::JsonValue;

int fail(const std::string& why) {
    std::cerr << "telemetry_report: FAIL: " << why << "\n";
    return 1;
}

// ---------------------------------------------------------------- metrics

/// Rebuild a LogHistogram from its snapshot entry (sparse
/// [index, count] bucket pairs + count/sum/min/max). The rebuilt sketch
/// merges and extracts percentiles exactly like the live one.
bool histogram_from_json(const JsonValue& entry, LogHistogram& h) {
    const auto* buckets = entry.find("buckets");
    const auto* count = entry.find("count");
    if (buckets == nullptr || count == nullptr ||
        buckets->type != JsonValue::Type::Array)
        return false;
    for (const JsonValue& pair : buckets->array) {
        if (pair.type != JsonValue::Type::Array || pair.array.size() != 2)
            return false;
        const auto idx = static_cast<std::size_t>(pair.array[0].as_int());
        if (idx >= LogHistogram::kBucketCount) return false;
        if (idx >= h.counts.size()) h.counts.resize(idx + 1, 0);
        h.counts[idx] +=
            static_cast<std::uint64_t>(pair.array[1].as_int());
    }
    h.total = static_cast<std::uint64_t>(count->as_int());
    if (const auto* sum = entry.find("sum")) h.sum = sum->as_double();
    if (const auto* mn = entry.find("min")) h.min = mn->as_double();
    if (const auto* mx = entry.find("max")) h.max = mx->as_double();
    return true;
}

/// Population CDF for one merged sketch: one row per non-empty bucket,
/// cumulative fraction at the bucket's upper edge.
void print_cdf(const std::string& name, const LogHistogram& h,
               int devices) {
    std::printf("\n  %s  (merged across %d device sketch%s, n=%llu)\n",
                name.c_str(), devices, devices == 1 ? "" : "es",
                static_cast<unsigned long long>(h.total));
    if (h.total == 0) {
        std::printf("    (empty)\n");
        return;
    }
    std::printf("    p50=%.3g  p90=%.3g  p99=%.3g  p999=%.3g  "
                "min=%.3g  max=%.3g\n",
                h.percentile(0.50), h.percentile(0.90), h.percentile(0.99),
                h.percentile(0.999), h.min, h.max);
    std::printf("    %14s %12s %8s\n", "<= value", "count", "cdf");
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        if (h.counts[i] == 0) continue;
        cum += h.counts[i];
        std::printf("    %14.6g %12llu %7.3f%%\n",
                    LogHistogram::bucket_upper(i),
                    static_cast<unsigned long long>(h.counts[i]),
                    100.0 * static_cast<double>(cum) /
                        static_cast<double>(h.total));
    }
}

struct MergedSeries {
    LogHistogram hist;
    int sketches = 0;
};

/// Parse the metrics snapshot, merge every log_histogram across its
/// label sets (keyed by name + non-device labels such as probe=udp1),
/// and print population CDFs. Returns the number of merged series, or
/// -1 on a malformed snapshot.
int report_metrics(const std::string& text) {
    std::string error;
    const auto doc = gatekit::report::json_parse(text, &error);
    if (!doc) {
        std::cerr << "telemetry_report: metrics parse error: " << error
                  << "\n";
        return -1;
    }
    const auto* schema = doc->find("schema");
    const auto* metrics = doc->find("metrics");
    if (schema == nullptr || schema->as_string() != "gatekit.metrics.v1" ||
        metrics == nullptr || metrics->type != JsonValue::Type::Array) {
        std::cerr << "telemetry_report: not a gatekit.metrics.v1 "
                     "snapshot\n";
        return -1;
    }
    // Preserve first-seen order so the report is deterministic and
    // follows registration order.
    std::vector<std::string> order;
    std::map<std::string, MergedSeries> merged;
    for (const JsonValue& entry : metrics->array) {
        const auto* kind = entry.find("kind");
        if (kind == nullptr || kind->as_string() != "log_histogram")
            continue;
        const auto* name = entry.find("name");
        if (name == nullptr) continue;
        std::string key = name->as_string();
        if (const auto* labels = entry.find("labels")) {
            for (const auto& [k, v] : labels->members)
                if (k != "device")
                    key += "{" + k + "=" + v.as_string() + "}";
        }
        auto [it, inserted] = merged.try_emplace(key);
        if (inserted) order.push_back(key);
        LogHistogram h;
        if (!histogram_from_json(entry, h)) {
            std::cerr << "telemetry_report: malformed log_histogram "
                         "entry for "
                      << key << "\n";
            return -1;
        }
        it->second.hist.merge(h);
        ++it->second.sketches;
    }
    std::printf("== Timeout / size CDFs from log-histogram sketches ==\n");
    if (order.empty())
        std::printf("  (no log_histogram series in snapshot)\n");
    for (const std::string& key : order)
        print_cdf(key, merged[key].hist, merged[key].sketches);
    return static_cast<int>(order.size());
}

/// What a two-device UDP-1 campaign's snapshot cannot help but hold: it
/// created NAT bindings, forwarded packets and ran probe trials on both
/// devices, and its log-histogram sites (packet sizes, granted timeouts,
/// probe timeouts) snapshot with percentiles. `text` has passed
/// validate_metrics_json. Returns what is missing, or an empty string.
std::string missing_from_udp1_snapshot(const std::string& text) {
    const auto doc = gatekit::report::json_parse(text);
    std::set<std::string> names;
    bool device = false, probe_udp1 = false, percentiles = false;
    for (const JsonValue& entry : doc->find("metrics")->array) {
        names.insert(entry.find("name")->as_string());
        if (const auto* labels = entry.find("labels")) {
            device = device || labels->find("device") != nullptr;
            const auto* probe = labels->find("probe");
            probe_udp1 = probe_udp1 ||
                         (probe != nullptr && probe->as_string() == "udp1");
        }
        percentiles = percentiles ||
                      (entry.find("kind")->as_string() == "log_histogram" &&
                       entry.find("p50") != nullptr &&
                       entry.find("p999") != nullptr);
    }
    for (const char* series :
         {"nat.binding.created", "fwd.forwarded", "probe.trials",
          "nat.binding.occupancy", "fwd.packet.bytes"})
        if (names.count(series) == 0)
            return std::string("expected series missing: ") + series;
    if (!device) return "expected label missing: device";
    if (!probe_udp1) return "expected label missing: probe=udp1";
    if (!percentiles) return "no log_histogram entry with p50 and p999";
    return {};
}

// ------------------------------------------------------------- timeseries

/// Validate and summarize the merged time-series stream in one pass:
/// segments that sampled anything (one per shard), series, sample
/// lines, points and the sim-time span. Returns the number of sample
/// lines, or -1 with `error` set when the stream is invalid.
long long report_timeseries(std::istream& in, std::string& error) {
    std::uint64_t segments = 0, lines = 0, points = 0, last_line = 0;
    std::uint32_t series = 0;
    std::int64_t t_min = 0, t_max = 0, shard = 0;
    std::string device;
    const bool ok = gatekit::obs::read_timeseries(
        in,
        [&](const gatekit::obs::TimeseriesPoint& p) {
            if (points == 0 || p.shard != shard || p.device != device) {
                ++segments;
                shard = p.shard;
                device.assign(p.device);
            }
            if (p.line != last_line) {
                ++lines;
                last_line = p.line;
            }
            if (points == 0 || p.stamp_ns < t_min) t_min = p.stamp_ns;
            if (points == 0 || p.stamp_ns > t_max) t_max = p.stamp_ns;
            series = std::max(series, p.series + 1);
            ++points;
        },
        &error);
    if (!ok) return -1;
    std::printf("\n== Time-series stream ==\n");
    std::printf("  segments=%llu  series=%u  sample lines=%llu  "
                "points=%llu\n",
                static_cast<unsigned long long>(segments), series,
                static_cast<unsigned long long>(lines),
                static_cast<unsigned long long>(points));
    if (points != 0)
        std::printf("  sim-time span: %.3f s .. %.3f s\n",
                    static_cast<double>(t_min) / 1e9,
                    static_cast<double>(t_max) / 1e9);
    return static_cast<long long>(lines);
}

// ---------------------------------------------------------------- profile

struct Span {
    std::string device, unit, status;
    std::int64_t wall_ns = 0;
};

/// Shard-skew and slowest-unit tables from the profile sidecar. Returns
/// the line types seen.
std::set<std::string> report_profile(std::istream& in, int top_n) {
    std::vector<Span> spans;
    struct Shard {
        int shard = 0, worker = 0;
        std::string device;
        std::int64_t wall_ns = 0;
    };
    std::vector<Shard> shards;
    // Only the summary line is kept whole; spans and shards keep the
    // fields the tables print.
    std::optional<JsonValue> summary;
    std::set<std::string> types;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        auto parsed = gatekit::report::json_parse(line);
        if (!parsed) continue;
        const JsonValue& doc = *parsed;
        const auto* type = doc.find("type");
        if (type == nullptr) continue;
        types.insert(type->as_string());
        if (type->as_string() == "span") {
            Span s;
            if (const auto* d = doc.find("device")) s.device = d->as_string();
            if (const auto* u = doc.find("unit")) s.unit = u->as_string();
            if (const auto* st = doc.find("status"))
                s.status = st->as_string();
            if (const auto* w = doc.find("wall_ns")) s.wall_ns = w->as_int();
            spans.push_back(std::move(s));
        } else if (type->as_string() == "shard") {
            Shard sh;
            if (const auto* k = doc.find("shard"))
                sh.shard = static_cast<int>(k->as_int());
            if (const auto* w = doc.find("worker"))
                sh.worker = static_cast<int>(w->as_int());
            if (const auto* d = doc.find("device"))
                sh.device = d->as_string();
            if (const auto* w = doc.find("wall_ns")) sh.wall_ns = w->as_int();
            shards.push_back(std::move(sh));
        } else if (type->as_string() == "summary") {
            summary = std::move(parsed);
        }
    }
    const JsonValue* summary_doc = summary ? &*summary : nullptr;

    std::printf("\n== Harness self-profile ==\n");
    if (summary_doc != nullptr) {
        const auto* busy = summary_doc->find("worker_busy_ns");
        std::printf("  workers=%zu  utilization=%.1f%%  skew(max/mean)="
                    "%.2f  slowest_device=%s\n",
                    busy != nullptr ? busy->array.size() : 0,
                    100.0 * (summary_doc->find("utilization") != nullptr
                                 ? summary_doc->find("utilization")
                                       ->as_double()
                                 : 0.0),
                    summary_doc->find("skew") != nullptr
                        ? summary_doc->find("skew")->as_double()
                        : 0.0,
                    summary_doc->find("slowest_device") != nullptr
                        ? summary_doc->find("slowest_device")
                              ->as_string()
                              .c_str()
                        : "?");
        if (busy != nullptr) {
            std::printf("  worker busy (ms):");
            for (const JsonValue& b : busy->array)
                std::printf(" %.1f", static_cast<double>(b.as_int()) / 1e6);
            std::printf("\n");
        }
    }
    if (!shards.empty()) {
        // Slowest shards first; ties broken by shard index so the table
        // is stable across runs with equal timings.
        std::stable_sort(shards.begin(), shards.end(),
                         [](const Shard& a, const Shard& b) {
                             return a.wall_ns > b.wall_ns;
                         });
        std::printf("  slowest shards:\n");
        std::printf("    %6s %8s %10s  %s\n", "shard", "worker",
                    "wall_ms", "device");
        const std::size_t n =
            std::min<std::size_t>(shards.size(), static_cast<std::size_t>(top_n));
        for (std::size_t i = 0; i < n; ++i)
            std::printf("    %6d %8d %10.2f  %s\n", shards[i].shard,
                        shards[i].worker,
                        static_cast<double>(shards[i].wall_ns) / 1e6,
                        shards[i].device.c_str());
    }
    if (!spans.empty()) {
        std::stable_sort(spans.begin(), spans.end(),
                         [](const Span& a, const Span& b) {
                             return a.wall_ns > b.wall_ns;
                         });
        std::printf("  top %d slowest units (%zu spans total):\n", top_n,
                    spans.size());
        std::printf("    %10s  %-10s %-24s %s\n", "wall_ms", "status",
                    "unit", "device");
        const std::size_t n =
            std::min<std::size_t>(spans.size(), static_cast<std::size_t>(top_n));
        for (std::size_t i = 0; i < n; ++i)
            std::printf("    %10.2f  %-10s %-24s %s\n",
                        static_cast<double>(spans[i].wall_ns) / 1e6,
                        spans[i].status.c_str(), spans[i].unit.c_str(),
                        spans[i].device.c_str());
    }
    return types;
}

// ------------------------------------------------------------------ modes

int analyze(const std::string& metrics_path, const std::string& ts_path,
            const std::string& profile_path, bool strict) {
    int artifacts = 0;
    std::string error;
    if (const auto text = read_file(metrics_path)) {
        ++artifacts;
        if (!gatekit::obs::validate_metrics_json(*text, &error))
            return fail("metrics snapshot invalid: " + error);
        if (report_metrics(*text) < 0) return 1;
        if (strict) {
            const std::string missing = missing_from_udp1_snapshot(*text);
            if (!missing.empty()) return fail(missing);
        }
    } else if (strict) {
        return fail("missing metrics snapshot " + metrics_path);
    } else {
        std::printf("(no metrics snapshot at %s)\n", metrics_path.c_str());
    }
    // The JSONL sidecars are read a line at a time. The time series is
    // validated as it is reported; the profile is validated, then
    // reported.
    if (std::ifstream in(ts_path, std::ios::binary); in) {
        ++artifacts;
        const long long lines = report_timeseries(in, error);
        if (lines < 0) return fail("time-series stream invalid: " + error);
        if (lines == 0 && strict)
            return fail("time-series stream has no sample lines");
    } else if (strict) {
        return fail("missing time-series stream " + ts_path);
    } else {
        std::printf("(no time-series stream at %s)\n", ts_path.c_str());
    }
    if (std::ifstream in(profile_path, std::ios::binary); in) {
        ++artifacts;
        if (!gatekit::obs::validate_profile(in, &error))
            return fail("profile sidecar invalid: " + error);
        in.clear();
        in.seekg(0);
        const auto types = report_profile(in, 10);
        if (strict)
            for (const char* type : {"span", "shard", "summary"})
                if (types.count(type) == 0)
                    return fail(std::string("profile sidecar has no ") +
                                type + " line");
    } else if (strict) {
        return fail("missing profile sidecar " + profile_path);
    } else {
        std::printf("(no profile sidecar at %s)\n", profile_path.c_str());
    }
    if (artifacts == 0)
        return fail("none of the three sidecars exist; nothing to report");
    return 0;
}

int smoke(const char* bench) {
    const std::string metrics = "telemetry_smoke_metrics.json";
    const std::string ts = "telemetry_smoke_timeseries.jsonl";
    const std::string profile = "telemetry_smoke_profile.jsonl";
    for (const auto& p : {metrics, ts, profile}) std::remove(p.c_str());
    ::setenv("GATEKIT_METRICS", metrics.c_str(), 1);
    ::setenv("GATEKIT_TIMESERIES", ts.c_str(), 1);
    ::setenv("GATEKIT_TS_INTERVAL", "1000", 1);
    ::setenv("GATEKIT_PROFILE", profile.c_str(), 1);
    ::setenv("GATEKIT_DEVICES", "2", 1);
    ::setenv("GATEKIT_REPS", "1", 1);
    ::setenv("GATEKIT_WORKERS", "2", 1);
    ::unsetenv("GATEKIT_CSV");
    ::unsetenv("GATEKIT_TRACE");
    ::unsetenv("GATEKIT_JOURNAL");

    const std::string cmd =
        std::string(bench) + " > telemetry_smoke_run.log 2>&1";
    std::cerr << "telemetry_report: running " << bench
              << " (2 devices, 1 rep, 2 workers, all sidecars on)...\n";
    if (std::system(cmd.c_str()) != 0)
        return fail("bench exited nonzero (see telemetry_smoke_run.log)");
    const int rc = analyze(metrics, ts, profile, /*strict=*/true);
    if (rc == 0) std::cerr << "telemetry_report: PASS\n";
    return rc;
}

} // namespace

int main(int argc, char** argv) {
    if (argc == 3 && std::string(argv[1]) == "--smoke")
        return smoke(argv[2]);
    if (argc == 4)
        return analyze(argv[1], argv[2], argv[3], /*strict=*/false);
    std::cerr << "usage: telemetry_report <metrics.json> "
                 "<timeseries.jsonl> <profile.jsonl>\n"
                 "       telemetry_report --smoke <figure-bench-binary>\n";
    return 2;
}
