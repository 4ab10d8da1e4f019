// population_campaign: the scaled version of the paper's study. Instead
// of the 34 calibrated devices, sample GATEKIT_POP_COUNT gateways
// (default 10000) from the generative population model (DESIGN.md
// section 14), run the timeout/mapping campaign over the sampled roster
// with the device-sharded scheduler, and report population-level
// figures the 34-device tables can only extrapolate toward:
//
//   * UDP-1 and TCP-1 binding-timeout CDFs with n = population size,
//   * the port-preservation fraction and STUN mapping-class mix,
//   * the direct-punch success prediction p^2 (both peers must map
//     endpoint-independently) with a real sample size behind p — the
//     number holepunch_matrix's hand-picked 6x6 table extrapolates.
//
// Gates (exit non-zero on violation):
//   * DETERMINISM GATE, always on: a prefix of the sampled roster is
//     re-run at a different worker count; per-device result JSON and
//     the journal must be byte-identical. Nondeterministic
//     sampling or merging fails the run, not just a ctest label.
//   * MEMORY GATE, always on: results are streamed (on_result), so
//     peak RSS must stay flat in the roster size — the run fails if
//     max RSS exceeds a budget that a buffered 10k-device campaign
//     would blow past (256 MB).
//
// Env knobs: GATEKIT_POP_COUNT (roster size, default 10000),
// GATEKIT_POP_SEED (population seed, default kPopulationSeed),
// GATEKIT_WORKERS (scheduler threads), GATEKIT_REPS (search
// repetitions, default 1 here — the sim is noiseless, repetitions only
// multiply run time).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "devices/population.hpp"
#include "harness/results_io.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "stun/stun_service.hpp"

using namespace gatekit;
using namespace gatekit::bench;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t def) {
    const char* v = std::getenv(name);
    if (v == nullptr) return def;
    errno = 0;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 0);
    if (errno != 0 || end == v || *end != '\0') {
        std::cerr << "[population] invalid " << name << "='" << v << "'\n";
        std::exit(2);
    }
    return n;
}

long max_rss_kb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/// The campaign both the gate prefix and the full population run use.
harness::CampaignConfig population_config() {
    harness::CampaignConfig cfg;
    cfg.udp1 = cfg.udp4 = cfg.tcp1 = cfg.stun = true;
    // One repetition per search: impairments are off, so every
    // repetition converges to the same value; GATEKIT_REPS can raise it.
    cfg.udp.repetitions = env_int("GATEKIT_REPS", 1);
    cfg.tcp_timeout.repetitions = env_int("GATEKIT_REPS", 1);
    return cfg;
}

/// Empirical CDF rendered as a fixed quantile ladder — render_plot()
/// draws one row per device, which stops being a figure at n = 10000.
void print_cdf(std::ostream& out, const std::string& title,
               std::vector<double>& xs) {
    std::sort(xs.begin(), xs.end());
    out << title << " (n = " << xs.size() << ")\n";
    constexpr double kQs[] = {0.01, 0.05, 0.10, 0.25, 0.50,
                              0.75, 0.90, 0.95, 0.99, 1.00};
    const double hi = xs.back();
    for (const double q : kQs) {
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(xs.size() - 1) + 0.5);
        const double v = xs[std::min(idx, xs.size() - 1)];
        const int bar =
            hi > 0.0 ? static_cast<int>(v / hi * 40.0 + 0.5) : 0;
        char line[128];
        std::snprintf(line, sizeof(line), "  p%-3.0f %10.0f s  |%-40s|\n",
                      q * 100.0, v, std::string(bar, '#').c_str());
        out << line;
    }
}

/// What the population run keeps per device: four scalars, not the
/// DeviceResults tree. Everything else is dropped at the frontier.
struct Tally {
    std::vector<double> udp_timeout_sec;
    std::vector<double> tcp_timeout_sec;
    long preserves_port = 0;
    long reuses_expired = 0;
    long mapping[4] = {0, 0, 0, 0}; ///< indexed by stun::Mapping
    long devices = 0;

    void add(const harness::DeviceResults& r) {
        ++devices;
        if (!r.udp1.samples_sec.empty())
            udp_timeout_sec.push_back(r.udp1.summary().median);
        if (!r.tcp1.samples_sec.empty())
            tcp_timeout_sec.push_back(r.tcp1.summary().median);
        preserves_port += r.udp4.preserves_source_port;
        reuses_expired += r.udp4.reuses_expired_binding;
        ++mapping[static_cast<int>(r.stun.mapping)];
    }
};

} // namespace

int main() {
    const int count = [] {
        const int n = env_int("GATEKIT_POP_COUNT", 10000);
        if (n < 2) {
            std::cerr << "[population] GATEKIT_POP_COUNT must be >= 2\n";
            std::exit(2);
        }
        return n;
    }();
    devices::PopulationSpec spec;
    spec.seed = env_u64("GATEKIT_POP_SEED", devices::kPopulationSeed);
    spec.count = count;
    // Per-gateway firewall chains (TEST-NET-2 matchers: exercised on
    // every forwarded packet, never change a verdict — see
    // PopulationSpec). Small default so the rule-hit counter population
    // stays O(roster), not O(roster * chain).
    spec.firewall_rules = env_int("GATEKIT_POP_FIREWALL", 2);
    if (spec.firewall_rules < 0) {
        std::cerr << "[population] GATEKIT_POP_FIREWALL must be >= 0\n";
        std::exit(2);
    }
    const int workers = env_workers();
    const harness::CampaignConfig cfg = population_config();

    std::cerr << "[population] sampling " << count << " gateways (seed 0x"
              << std::hex << spec.seed << std::dec << ", workers "
              << workers << ")\n";
    const auto roster = devices::sample_roster(spec);

    // --- Determinism gate: same prefix, two worker counts, same bytes.
    const int gate_n = std::min(count, 12);
    int failures = 0;
    {
        // Three legs: workers 1 and 4 bare, then workers 4 with the
        // time-series sink and self-profiler on. All three must produce
        // byte-identical per-device results and merged journal — the
        // telemetry leg is the "observation never perturbs the
        // campaign" invariant, gated on every run.
        struct Leg {
            int workers;
            bool telemetry;
        };
        std::string ref_results, ref_journal;
        for (const Leg leg : {Leg{1, false}, Leg{4, false}, Leg{4, true}}) {
            const std::string stem =
                "gatekit_population_gate_w" + std::to_string(leg.workers) +
                (leg.telemetry ? "_tel" : "");
            const std::string path = stem + ".jsonl";
            const std::string ts_path = stem + "_timeseries.jsonl";
            const std::string prof_path = stem + "_profile.jsonl";
            std::remove(path.c_str());
            std::remove(ts_path.c_str());
            std::remove(prof_path.c_str());
            harness::ShardScheduler::Options opts;
            opts.roster.assign(roster.begin(), roster.begin() + gate_n);
            opts.config = cfg;
            opts.workers = leg.workers;
            opts.journal_path = path;
            if (leg.telemetry) {
                opts.timeseries_path = ts_path;
                opts.profile_path = prof_path;
            }
            auto out = harness::ShardScheduler::run(opts);
            std::string results;
            for (const auto& r : out.results)
                results += harness::device_results_json(r) + "\n";
            const std::string journal = bench::read_file(path).value_or("");
            std::remove(path.c_str());
            if (leg.telemetry) {
                std::string error;
                std::ifstream ts_in(ts_path, std::ios::binary);
                if (!obs::validate_timeseries(ts_in, &error)) {
                    ++failures;
                    std::cerr << "[population] FAIL: gate time-series "
                                 "sidecar invalid: "
                              << error << "\n";
                }
                std::ifstream prof_in(prof_path, std::ios::binary);
                if (!obs::validate_profile(prof_in, &error)) {
                    ++failures;
                    std::cerr << "[population] FAIL: gate profile "
                                 "sidecar invalid: "
                              << error << "\n";
                }
                std::remove(ts_path.c_str());
                std::remove(prof_path.c_str());
            }
            if (ref_results.empty() && ref_journal.empty()) {
                ref_results = results;
                ref_journal = journal;
            } else if (results != ref_results || journal != ref_journal) {
                ++failures;
                std::cerr << "[population] FAIL: workers="
                          << leg.workers << " telemetry="
                          << (leg.telemetry ? "on" : "off")
                          << " changed the sampled-campaign bytes\n";
            }
        }
        if (failures == 0)
            std::cerr << "[population] determinism gate: " << gate_n
                      << "-device prefix byte-identical at workers 1/4 "
                         "and with telemetry on\n";
    }

    // --- Full population run, streaming: Output::results stays empty.
    // Telemetry sidecars are on by default at population scale — the
    // time-series sampler and profiler hold per-shard state only, so
    // the flat-memory budget below also gates their footprint.
    const auto env_path = [](const char* name, const char* def) {
        const char* v = std::getenv(name);
        return std::string(v != nullptr ? v : def);
    };
    const std::string ts_path = env_path(
        "GATEKIT_TIMESERIES", "gatekit_population_timeseries.jsonl");
    const std::string prof_path =
        env_path("GATEKIT_PROFILE", "gatekit_population_profile.jsonl");
    Tally tally;
    harness::ShardScheduler::Options opts;
    opts.roster = roster;
    opts.config = cfg;
    opts.workers = workers;
    opts.timeseries_path = ts_path;
    opts.profile_path = prof_path;
    opts.on_result = [&](int device, harness::DeviceResults&& r) {
        tally.add(r);
        if ((device + 1) % 1000 == 0)
            std::cerr << "[population] " << (device + 1) << "/" << count
                      << " devices, max RSS " << max_rss_kb() / 1024
                      << " MB\n";
    };
    const auto start = std::chrono::steady_clock::now();
    auto out = harness::ShardScheduler::run(opts);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (!out.results.empty()) {
        ++failures;
        std::cerr << "[population] FAIL: on_result was set but results "
                     "were buffered\n";
    }

    // --- Report.
    std::cout << "Sampled-population campaign: " << count
              << " gateways drawn from the 34-profile generative model\n"
              << "(seed 0x" << std::hex << spec.seed << std::dec
              << ", archetype + jitter, DESIGN.md section 14)\n"
              << "==================================================\n\n";
    print_cdf(std::cout, "UDP binding-timeout CDF (UDP-1)",
              tally.udp_timeout_sec);
    std::cout << "\n";
    print_cdf(std::cout, "TCP established-timeout CDF (TCP-1)",
              tally.tcp_timeout_sec);

    const double n = static_cast<double>(tally.devices);
    const double p_preserve = static_cast<double>(tally.preserves_port) / n;
    const double p_ei =
        static_cast<double>(
            tally.mapping[static_cast<int>(stun::Mapping::NoNat)] +
            tally.mapping[static_cast<int>(
                stun::Mapping::EndpointIndependent)]) /
        n;
    const double punch = p_ei * p_ei;
    // Binomial standard error on p, propagated to p^2 (delta method).
    const double se_p = std::sqrt(p_ei * (1.0 - p_ei) / n);
    const double se_punch = 2.0 * p_ei * se_p;
    std::cout << "\nPort allocation: " << tally.preserves_port << "/"
              << tally.devices << " preserve the source port ("
              << report::fmt_double(p_preserve * 100, 1) << "%), "
              << tally.reuses_expired << " reuse expired bindings.\n";
    std::cout << "STUN mapping classes: ";
    for (int m = 0; m < 4; ++m)
        std::cout << to_string(static_cast<stun::Mapping>(m)) << " "
                  << tally.mapping[m] << (m < 3 ? ", " : "\n");
    std::cout << "Direct-punch prediction: p = "
              << report::fmt_double(p_ei * 100, 1) << "% +/- "
              << report::fmt_double(se_p * 100, 1)
              << "% endpoint-independent => p^2 = "
              << report::fmt_double(punch * 100, 1) << "% +/- "
              << report::fmt_double(se_punch * 100, 1)
              << "% of random pairs punch directly (n = " << tally.devices
              << "; Ford et al. measured 82% in the wild).\n";

    // Streaming validation (one line in memory at a time): slurping a
    // population-scale sidecar would dwarf the campaign's own RSS and
    // defeat the flat-memory gate below. Empty path = sidecar disabled.
    const auto file_kb = [](const std::string& path) {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        return in ? static_cast<long>(in.tellg()) / 1024 : 0L;
    };
    if (!ts_path.empty() || !prof_path.empty()) {
        std::string error;
        std::ifstream ts_in(ts_path, std::ios::binary);
        if (!ts_path.empty() && !obs::validate_timeseries(ts_in, &error)) {
            ++failures;
            std::cerr << "[population] FAIL: time-series sidecar "
                         "invalid: "
                      << error << "\n";
        }
        std::ifstream prof_in(prof_path, std::ios::binary);
        if (!prof_path.empty() && !obs::validate_profile(prof_in, &error)) {
            ++failures;
            std::cerr << "[population] FAIL: profile sidecar invalid: "
                      << error << "\n";
        }
        std::cout << "\nTelemetry:";
        if (!ts_path.empty())
            std::cout << " " << ts_path << " (" << file_kb(ts_path)
                      << " KB)" << (prof_path.empty() ? "" : ",");
        if (!prof_path.empty())
            std::cout << " " << prof_path << " (" << file_kb(prof_path)
                      << " KB)";
        std::cout << "; analyze with bench/telemetry_report.\n";
    }

    const long rss_mb = max_rss_kb() / 1024;
    std::cout << "\nScale: " << count << " gateways in "
              << report::fmt_double(secs, 1) << " s at " << workers
              << " worker(s), max RSS " << rss_mb << " MB.\n";
    if (rss_mb > 256) {
        ++failures;
        std::cerr << "[population] FAIL: max RSS " << rss_mb
                  << " MB > 256 MB flat-memory budget\n";
    }

    std::cout << "population_campaign: "
              << (failures == 0 ? "PASS" : "FAIL") << "\n";
    return failures == 0 ? 0 : 1;
}
