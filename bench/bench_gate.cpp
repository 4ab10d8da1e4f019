// Perf-regression gate for `make bench_baseline`. Runs the microbench
// suite with repetitions, compares the gated benchmarks' median CPU
// times against the committed baseline, and FAILS LOUDLY (exit 2)
// instead of silently rewriting the JSON when a gated bench regressed
// more than 15% or broke its absolute ceiling. On a pass it rewrites
// results/BENCH_microbench.json and appends the gated numbers to
// results/BENCH_trajectory.json — the in-repo perf history.
//
// Usage: bench_gate <microbench-binary> <results-dir>
// Env:   GATEKIT_TRAJ_LABEL  label for the trajectory entry (default
//                            "dev"); CHANGES.md uses the PR number.
//        GATEKIT_GATE_CHECK_ONLY  compare but never rewrite files.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "report/json.hpp"

using gatekit::bench::read_file;
using gatekit::report::JsonValue;

namespace {

struct Gate {
    const char* name;
    double ceiling_ns; ///< absolute CPU-time ceiling; 0 = relative only
};

// The gated set: the benches with acceptance-criteria ceilings plus the
// hot-path primitives they decompose into. Everything else in the suite
// is informational (and too noisy on shared hosts to gate at 15%).
constexpr Gate kGates[] = {
    {"BM_ForwardPipelineUdp", 150.0},
    {"BM_ForwardPipelineUdpObserved", 0.0},
    {"BM_NatOutboundUdp", 200.0},
    {"BM_PacketPoolAcquireRelease", 0.0},
    {"BM_ParseHeadersView", 0.0},
    {"BM_RuleChainCompiled/1000", 0.0},
    {"BM_HistogramLogObserve", 0.0},
    {"BM_TimeseriesSampleDisabled", 0.0},
};
constexpr double kMaxRegression = 0.15;

/// CPU time (ns) for `bench` from a google-benchmark JSON document.
/// Prefers the `_median` aggregate (repetition runs); falls back to the
/// plain entry (single runs, e.g. a baseline recorded without reps).
std::optional<double> cpu_time_of(const JsonValue& doc,
                                  const std::string& bench) {
    const JsonValue* arr = doc.find("benchmarks");
    if (arr == nullptr || arr->type != JsonValue::Type::Array)
        return std::nullopt;
    std::optional<double> plain;
    for (const JsonValue& e : arr->array) {
        const JsonValue* name = e.find("name");
        const JsonValue* cpu = e.find("cpu_time");
        if (name == nullptr || cpu == nullptr) continue;
        if (name->as_string() == bench + "_median") return cpu->as_double();
        if (name->as_string() == bench) plain = cpu->as_double();
    }
    return plain;
}

} // namespace

int main(int argc, char** argv) {
    if (argc != 3) {
        std::fprintf(stderr, "usage: %s <microbench-binary> <results-dir>\n",
                     argv[0]);
        return 2;
    }
    const std::string microbench = argv[1];
    const std::string results_dir = argv[2];
    const std::string baseline_path = results_dir + "/BENCH_microbench.json";
    const std::string traj_path = results_dir + "/BENCH_trajectory.json";
    const std::string fresh_path = results_dir + "/.bench_gate_run.json";

    // Repetitions + median: single runs on a shared host jitter well
    // past the 15% threshold; the median of 7 does not. Only the gated
    // benches run — the shorter the wall-clock window, the fewer
    // noisy-neighbor bursts land inside it.
    std::string filter = "^(";
    for (const Gate& g : kGates) {
        if (filter.size() > 2) filter += '|';
        filter += g.name;
    }
    filter += ")$";
    const std::string cmd = microbench +
                            " --benchmark_filter='" + filter +
                            "'"
                            " --benchmark_repetitions=7"
                            " --benchmark_min_time=0.1"
                            " --benchmark_out_format=json"
                            " --benchmark_out=" +
                            fresh_path + " > /dev/null";
    if (std::system(cmd.c_str()) != 0) {
        std::fprintf(stderr, "bench_gate: microbench run failed\n");
        return 2;
    }

    const auto fresh_text = read_file(fresh_path);
    std::remove(fresh_path.c_str());
    if (!fresh_text) {
        std::fprintf(stderr, "bench_gate: no output JSON\n");
        return 2;
    }
    std::string err;
    auto fresh = gatekit::report::json_parse(*fresh_text, &err);
    if (!fresh) {
        std::fprintf(stderr, "bench_gate: bad JSON: %s\n", err.c_str());
        return 2;
    }

    const auto baseline_text = read_file(baseline_path);
    std::optional<JsonValue> baseline;
    if (baseline_text) baseline = gatekit::report::json_parse(*baseline_text);

    bool failed = false;
    std::vector<std::pair<std::string, double>> gated_now;
    for (const Gate& g : kGates) {
        const auto now = cpu_time_of(*fresh, g.name);
        if (!now) {
            std::fprintf(stderr, "FAIL %-32s missing from this run\n", g.name);
            failed = true;
            continue;
        }
        gated_now.emplace_back(g.name, *now);
        if (g.ceiling_ns > 0.0 && *now > g.ceiling_ns) {
            std::fprintf(stderr,
                         "FAIL %-32s %8.1f ns CPU > ceiling %.0f ns\n",
                         g.name, *now, g.ceiling_ns);
            failed = true;
            continue;
        }
        const auto before =
            baseline ? cpu_time_of(*baseline, g.name) : std::nullopt;
        if (before && *before > 0.0) {
            const double rel = (*now - *before) / *before;
            if (rel > kMaxRegression) {
                std::fprintf(stderr,
                             "FAIL %-32s %8.1f ns vs baseline %.1f ns "
                             "(+%.0f%% > %.0f%%)\n",
                             g.name, *now, *before, rel * 100.0,
                             kMaxRegression * 100.0);
                failed = true;
                continue;
            }
            std::printf("ok   %-32s %8.1f ns (baseline %.1f, %+.0f%%)\n",
                        g.name, *now, *before, rel * 100.0);
        } else {
            std::printf("ok   %-32s %8.1f ns (no baseline entry)\n", g.name,
                        *now);
        }
    }
    if (failed) {
        std::fprintf(stderr,
                     "bench_gate: refusing to rewrite %s — fix the "
                     "regression or re-baseline deliberately\n",
                     baseline_path.c_str());
        return 2;
    }
    if (std::getenv("GATEKIT_GATE_CHECK_ONLY") != nullptr) {
        std::printf("bench_gate: check-only, baseline untouched\n");
        return 0;
    }

    // Pass: the fresh run becomes the committed baseline…
    {
        std::ofstream out(baseline_path, std::ios::binary);
        out << *fresh_text;
    }
    // …and the gated medians append to the trajectory series.
    JsonValue traj;
    traj.type = JsonValue::Type::Array;
    if (const auto t = read_file(traj_path)) {
        if (auto parsed = gatekit::report::json_parse(*t);
            parsed && parsed->type == JsonValue::Type::Array)
            traj = std::move(*parsed);
    }
    const char* label = std::getenv("GATEKIT_TRAJ_LABEL");
    JsonValue entry;
    entry.type = JsonValue::Type::Object;
    JsonValue lbl;
    lbl.type = JsonValue::Type::String;
    lbl.str = label != nullptr ? label : "dev";
    entry.members.emplace_back("label", std::move(lbl));
    JsonValue benches;
    benches.type = JsonValue::Type::Object;
    for (const auto& [name, ns] : gated_now) {
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = ns;
        benches.members.emplace_back(name, std::move(v));
    }
    entry.members.emplace_back("cpu_ns", std::move(benches));
    traj.array.push_back(std::move(entry));
    {
        std::ofstream out(traj_path, std::ios::binary);
        out << gatekit::report::json_serialize(traj) << "\n";
    }
    std::printf("bench_gate: baseline updated, trajectory entry '%s'\n",
                label != nullptr ? label : "dev");
    return 0;
}
