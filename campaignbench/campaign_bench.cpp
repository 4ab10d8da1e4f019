// campaign_bench: runs one workload of the campaign benchmark through
// gatekit's public harness API and prints its metrics. NOTES.md says why
// each workload exists; run.py builds this binary and maps a run's
// --seed onto the inputs below.
//
//   campaign_bench --workload <bulk|nat444_bulk|probes|population_telemetry>
//                  --refs <dir> --scratch <dir>
//                  [--seconds S] [--trace 0|1] [--order-seed N]
//                  [--pop-seed X] [--devices N] [--write-refs]
//
// --trace 0 measures the end-to-end metrics: whole campaigns back to
// back (closed loop, one scheduler worker), each preceded by one timed
// set-up, until S seconds have passed. --trace 1 replays every roster device
// through Testbed + Testrund::run_blocking with timing shims in front of
// each node ingress, and twice more with a metrics registry attached,
// and prints the per-layer table. Every device's results are hashed and
// compared with refs/<workload>.<input>.txt; --write-refs writes that
// file instead.
//
// The last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. Exit 0 when the run completed, correct
// or not; exit 2 on a usage error, a missing reference, or a failure.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "devices/population.hpp"
#include "devices/profiles.hpp"
#include "harness/results_io.hpp"
#include "harness/testbed.hpp"
#include "harness/testrund.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "sim/event_loop.hpp"
#include "sim/link.hpp"

using namespace gatekit;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

// ---------------------------------------------------------------- inputs

/// Transfer size for the TCP-2/3 workloads: large enough that per-packet
/// work dominates a device, small enough that a 34-device campaign takes
/// about a second, so one run holds a dozen campaigns or more.
constexpr std::size_t kBulkBytes = 1'000'000;
constexpr int kProbeGateways = 100;
constexpr int kPopulationGateways = 1000;

struct Args {
    std::string workload;
    std::string refs_dir;
    std::string scratch_dir;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t order_seed = 0;
    std::uint64_t pop_seed = devices::kPopulationSeed;
    int devices = -1; ///< roster prefix; -1 = the workload's full roster
    bool write_refs = false;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "campaign_bench: " << why << "\n"
              << "usage: campaign_bench --workload <bulk|nat444_bulk|probes|"
                 "population_telemetry> --refs <dir> --scratch <dir>\n"
                 "       [--seconds S] [--trace 0|1] [--order-seed N] "
                 "[--pop-seed X] [--devices N] [--write-refs]\n";
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
    try {
        std::size_t used = 0;
        const unsigned long long n = std::stoull(v, &used, 0);
        if (used != v.size()) throw std::invalid_argument(v);
        return n;
    } catch (const std::exception&) {
        usage("invalid " + flag + " '" + v + "'");
    }
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-refs") {
            a.write_refs = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--refs") {
            a.refs_dir = v;
        } else if (flag == "--scratch") {
            a.scratch_dir = v;
        } else if (flag == "--seconds") {
            const std::uint64_t s = parse_u64(flag, v);
            if (s < 1 || s > 3600) usage("--seconds must be in [1, 3600]");
            a.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1") usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--order-seed") {
            a.order_seed = parse_u64(flag, v);
        } else if (flag == "--pop-seed") {
            a.pop_seed = parse_u64(flag, v);
        } else if (flag == "--devices") {
            const std::uint64_t n = parse_u64(flag, v);
            if (n < 1 || n > 100000) usage("--devices must be >= 1");
            a.devices = static_cast<int>(n);
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty() || a.refs_dir.empty() || a.scratch_dir.empty())
        usage("--workload, --refs and --scratch are required");
    return a;
}

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/// One workload: the roster, the campaign, and how devices are wired.
struct Workload {
    std::string name;
    std::vector<gateway::DeviceProfile> roster;
    harness::CampaignConfig config;
    bool behind_cgn = false; ///< each device behind its own default CGN
    bool sidecars = false;   ///< time-series + profile sidecars on
    std::string input_id;    ///< names the reference file
    std::string params;      ///< reference header: what shapes the bytes
    std::string fingerprint; ///< campaign fingerprint, as the scheduler
};

/// Put the roster in an order drawn from `seed` (0 keeps it as is). The
/// order moves each device to another device number, so its addresses
/// and result bytes change, but the campaign's work does not: a sampled
/// roster drawn afresh per seed would change it by up to 27% at 100
/// gateways (NOTES.md).
void shuffle(std::vector<gateway::DeviceProfile>& r, std::uint64_t seed) {
    if (seed == 0 || r.size() < 2) return;
    std::uint64_t state = seed;
    for (std::size_t i = r.size() - 1; i > 0; --i)
        std::swap(r[i], r[splitmix64(state) % (i + 1)]);
}

std::vector<gateway::DeviceProfile> sampled_roster(std::uint64_t seed,
                                                   int count,
                                                   int firewall_rules) {
    devices::PopulationSpec spec;
    spec.seed = seed;
    spec.count = count;
    spec.firewall_rules = firewall_rules;
    return devices::sample_roster(spec);
}

/// Roster construction included: this is the first step set-up times.
Workload make_workload(const Args& a) {
    Workload w;
    w.name = a.workload;
    if (w.name == "bulk" || w.name == "nat444_bulk") {
        w.roster = devices::all_profiles();
        w.config.tcp2 = true;
        w.config.throughput.bytes = kBulkBytes;
        w.behind_cgn = w.name == "nat444_bulk";
        w.input_id = "calibrated";
        w.params = "bytes=" + std::to_string(kBulkBytes);
    } else if (w.name == "probes") {
        w.roster = sampled_roster(a.pop_seed, kProbeGateways, 0);
        w.config = harness::CampaignConfig::everything();
        w.config.tcp2 = false;
        // One repetition per search, as population_campaign: without
        // impairments every repetition converges to the same value.
        w.config.udp.repetitions = 1;
        w.config.tcp_timeout.repetitions = 1;
        w.input_id = "pop" + hex64(a.pop_seed);
        w.params = "reps=1 firewall=0";
    } else if (w.name == "population_telemetry") {
        // population_campaign's roster (2 firewall rules per gateway),
        // units and shipping sidecars.
        w.roster = sampled_roster(a.pop_seed, kPopulationGateways, 2);
        w.config.udp1 = w.config.udp4 = w.config.tcp1 = w.config.stun = true;
        w.config.udp.repetitions = 1;
        w.config.tcp_timeout.repetitions = 1;
        w.sidecars = true;
        w.input_id = "pop" + hex64(a.pop_seed);
        w.params = "reps=1 firewall=2";
    } else {
        usage("unknown workload '" + w.name + "'");
    }
    shuffle(w.roster, a.order_seed);
    if (a.devices > 0 && static_cast<std::size_t>(a.devices) < w.roster.size())
        w.roster.resize(static_cast<std::size_t>(a.devices));
    w.input_id += ".order" + std::to_string(a.order_seed);
    std::vector<std::string> ids;
    ids.reserve(w.roster.size());
    for (const auto& p : w.roster) ids.push_back(gateway::profile_identity(p));
    w.fingerprint = harness::campaign_fingerprint(w.config, ids);
    return w;
}

/// Wire roster device k into `tb` and return its slot: under its global
/// number k+1 (as ShardScheduler does), or behind a fresh default CGN.
int add_device(harness::Testbed& tb, const Workload& w, int k) {
    const auto& profile = w.roster[static_cast<std::size_t>(k)];
    if (w.behind_cgn)
        return tb.add_device_behind_cgn(profile, tb.add_cgn_group());
    return tb.add_device(profile, k + 1);
}

/// The campaign config one device runs with: the scheduler's shard
/// fields for a direct device, the plain config behind a CGN (the
/// nat444 workload drives Testrund per device, without the scheduler).
harness::CampaignConfig device_config(const Workload& w, int k) {
    harness::CampaignConfig cfg = w.config;
    if (!w.behind_cgn) {
        cfg.shard.index = k;
        cfg.shard.first_device = 0;
        cfg.shard.last_device = 0;
        cfg.shard.device_base = k;
        cfg.shard.fingerprint = w.fingerprint;
    }
    return cfg;
}

// ---------------------------------------------------------------- checks

/// Per-device output check against the stored reference. A device fails
/// its units that are not Ok, or one unit if only its digest differs, so
/// failures never outnumber the units planned.
class Checker {
public:
    Checker(const Workload& w, const Args& a)
        : path_(fs::path(a.refs_dir) /
                (w.name + "." + w.input_id + ".txt")),
          header_("# " + w.name + " " + w.input_id + " " + w.params),
          writing_(a.write_refs), n_(w.roster.size()) {
        if (writing_) return;
        std::ifstream in(path_);
        std::string line;
        if (!in || !std::getline(in, line) || line != header_)
            throw std::runtime_error("no reference for these inputs: " +
                                     path_.string() + " (want header '" +
                                     header_ + "')");
        while (std::getline(in, line)) expected_.push_back(line);
        if (expected_.size() < n_)
            throw std::runtime_error("reference " + path_.string() +
                                     " holds " +
                                     std::to_string(expected_.size()) +
                                     " devices, the roster " +
                                     std::to_string(n_));
    }

    /// Returns the bytes of the device's result line.
    std::size_t check(int device, const harness::DeviceResults& r) {
        const auto d = static_cast<std::size_t>(device);
        std::uint64_t bad = 0;
        for (const auto& u : r.units)
            if (u.status != harness::UnitStatus::Ok) ++bad;
        const std::string line = harness::device_results_json(r);
        const std::string digest = hex64(fnv1a(line));
        bool differs = false;
        if (writing_) {
            if (observed_.size() <= d) observed_.resize(d + 1);
            if (observed_[d].empty()) observed_[d] = digest;
            differs = observed_[d] != digest;
        } else {
            differs = expected_[d] != digest;
        }
        units_ += r.units.size();
        mismatched_ += differs ? 1 : 0;
        failed_ += std::max<std::uint64_t>(bad, differs ? 1 : 0);
        return line.size() + 1;
    }

    void write_reference() const {
        fs::create_directories(path_.parent_path());
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out << header_ << "\n";
        for (const auto& d : observed_) out << d << "\n";
        if (!out.good() || observed_.size() != n_)
            throw std::runtime_error("cannot write " + path_.string());
        std::cerr << "[campaign_bench] wrote " << path_.string() << "\n";
    }

    std::uint64_t attempted() const { return units_; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t mismatched() const { return mismatched_; }

private:
    fs::path path_;
    std::string header_;
    bool writing_;
    std::size_t n_;
    std::vector<std::string> expected_;
    std::vector<std::string> observed_;
    std::uint64_t units_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t mismatched_ = 0;
};

// ---------------------------------------------------------------- output

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Nearest-rank percentile of a sorted sample.
double nearest_rank(const std::vector<double>& sorted, int pct) {
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/// The highest whole percentile with at least ten devices beyond it.
int tail_percentile(std::size_t n) {
    if (n <= 10) return 0;
    return static_cast<int>((n - 10) * 100 / n);
}

long peak_rss_kb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

class Result {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        if (!metrics_.empty()) metrics_ += ", ";
        metrics_ += "\"" + name + "\": {\"value\": " + num(value) +
                    ", \"unit\": \"" + unit + "\"}";
    }
    void print(bool correct, std::uint64_t attempted,
               std::uint64_t failed) const {
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << attempted
                  << ", \"failed\": " << failed << ", \"metrics\": {"
                  << metrics_ << "}}" << std::endl;
    }

private:
    std::string metrics_;
};

// ---------------------------------------------------------------- set-up

/// Fastest time seen for each timed piece. A shared machine has slow
/// periods of several seconds that only ever add time (NOTES.md), so
/// each piece is repeated through the run and its fastest repetition
/// kept; percentiles are then taken over devices.
struct Fastest {
    std::vector<double> v;
    explicit Fastest(std::size_t n)
        : v(n, std::numeric_limits<double>::infinity()) {}
    void see(std::size_t i, double x) { v[i] = std::min(v[i], x); }
    double sum() const { return std::accumulate(v.begin(), v.end(), 0.0); }
};

/// One set-up repetition: roster construction (slot 0), then one Testbed
/// construction and bring-up per roster device (slot k + 1).
void time_setup(const Args& a, Fastest& best) {
    auto t = Clock::now();
    const Workload w = make_workload(a);
    best.see(0, static_cast<double>(ns_between(t, Clock::now())) * 1e-9);
    for (int k = 0; k < static_cast<int>(w.roster.size()); ++k) {
        t = Clock::now();
        {
            sim::EventLoop loop;
            harness::Testbed tb(loop);
            add_device(tb, w, k);
            tb.start_and_wait();
        }
        best.see(static_cast<std::size_t>(k) + 1,
                 static_cast<double>(ns_between(t, Clock::now())) * 1e-9);
    }
}

/// Moves the calling thread to the next CPU it may run on, round robin.
/// A slow period hits one vCPU at a time and can last a whole run on it;
/// moving before each campaign lets every device's fastest repetition
/// come from a CPU outside the slow period.
class CpuRotation {
public:
    CpuRotation() {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
    void next() {
        if (cpus_.size() < 2) return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[next_++ % cpus_.size()], &set);
        sched_setaffinity(0, sizeof(set), &set); // a hint: failure is fine
    }
    std::size_t count() const { return cpus_.size(); }

private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

// ---------------------------------------------------------------- campaign

struct Campaign {
    double wall_s = 0.0;
    std::vector<double> device_ms; ///< roster order
    double output_bytes = 0.0;     ///< result lines + sidecars
};

/// One whole campaign. Time spent checking results is excluded from
/// both the campaign and the device times.
Campaign run_campaign(const Workload& w, const Args& a, Checker& chk) {
    Campaign c;
    std::int64_t check_ns = 0;
    const auto t0 = Clock::now();
    if (w.behind_cgn) {
        for (int k = 0; k < static_cast<int>(w.roster.size()); ++k) {
            const auto d0 = Clock::now();
            sim::EventLoop loop;
            harness::Testbed tb(loop);
            add_device(tb, w, k);
            tb.start_and_wait();
            auto results = harness::Testrund(tb).run_blocking(w.config);
            const auto d1 = Clock::now();
            c.device_ms.push_back(static_cast<double>(ns_between(d0, d1)) *
                                  1e-6);
            c.output_bytes +=
                static_cast<double>(chk.check(k, results.at(0)));
            check_ns += ns_between(d1, Clock::now());
        }
    } else {
        harness::ShardScheduler::Options opts;
        opts.roster = w.roster;
        opts.config = w.config;
        opts.workers = 1;
        const fs::path dir(a.scratch_dir);
        const std::string ts_path = (dir / "timeseries.jsonl").string();
        const std::string prof_path = (dir / "profile.jsonl").string();
        if (w.sidecars) {
            opts.timeseries_path = ts_path;
            opts.profile_path = prof_path;
        }
        auto last = t0;
        opts.on_result = [&](int device, harness::DeviceResults&& r) {
            const auto d1 = Clock::now();
            c.device_ms.push_back(static_cast<double>(ns_between(last, d1)) *
                                  1e-6);
            c.output_bytes += static_cast<double>(chk.check(device, r));
            last = Clock::now();
            check_ns += ns_between(d1, last);
        };
        harness::ShardScheduler::run(opts);
        if (w.sidecars) {
            for (const auto& p : {ts_path, prof_path}) {
                c.output_bytes += static_cast<double>(fs::file_size(p));
                fs::remove(p);
            }
        }
    }
    c.wall_s =
        static_cast<double>(ns_between(t0, Clock::now()) - check_ns) * 1e-9;
    return c;
}

int run_end_to_end(const Args& a) {
    const Workload w = make_workload(a);
    const std::size_t n = w.roster.size();
    Checker chk(w, a);
    Fastest setup(n + 1), device_ms(n);
    // Set-up repetitions are spread through the run, one before each
    // campaign, so they meet the machine's slow periods as often as the
    // campaigns do. The first campaign warms up: checked, not timed.
    time_setup(a, setup);
    time_setup(a, setup);
    run_campaign(w, a, chk);
    if (a.write_refs) {
        chk.write_reference();
        return chk.mismatched() == 0 ? 0 : 2;
    }

    std::vector<double> wall_s, output_mb;
    CpuRotation cpus;
    const auto start = Clock::now();
    while (wall_s.size() < 3 ||
           static_cast<double>(ns_between(start, Clock::now())) * 1e-9 <
               a.seconds) {
        cpus.next();
        time_setup(a, setup);
        const Campaign c = run_campaign(w, a, chk);
        wall_s.push_back(c.wall_s);
        output_mb.push_back(c.output_bytes / 1e6);
        for (std::size_t k = 0; k < n; ++k) device_ms.see(k, c.device_ms[k]);
    }

    std::vector<double> sorted = device_ms.v;
    std::sort(sorted.begin(), sorted.end());
    const int tail_pct = tail_percentile(n);
    const double wall = device_ms.sum() * 1e-3;
    const double p50 = nearest_rank(sorted, 50);
    const double tail = nearest_rank(sorted, tail_pct);
    const double rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
    const double fail_ratio = static_cast<double>(chk.failed()) /
                              static_cast<double>(chk.attempted());
    std::cout << "workload " << w.name << ": " << n << " devices, inputs "
              << w.input_id << " (" << w.params << "), " << wall_s.size()
              << " timed campaigns after 1 warm-up, 1 worker, closed loop, "
              << "moved round robin over " << cpus.count() << " CPUs\n"
              << "  each device's time is its fastest of the "
              << wall_s.size() << " campaigns; set-up pieces likewise of "
              << wall_s.size() + 2 << " repetitions\n"
              << "  wall_s " << wall << " (sum of device times; campaigns "
              << "as run: median " << median(wall_s) << ", min "
              << *std::min_element(wall_s.begin(), wall_s.end()) << ", max "
              << *std::max_element(wall_s.begin(), wall_s.end()) << ")\n"
              << "  setup_s " << setup.sum() << "\n"
              << "  device_ms p50 " << p50 << ", tail p" << tail_pct << " "
              << tail << " (n = " << n << " devices)\n"
              << "  peak_rss_mb " << rss_mb << ", output_mb "
              << median(output_mb) << "\n"
              << "  unit_fail_ratio " << fail_ratio << " (" << chk.failed()
              << " failed of " << chk.attempted() << " units; "
              << chk.mismatched() << " device digests differ)\n";

    Result res;
    res.add("wall_s", wall, "s");
    res.add("setup_s", setup.sum(), "s");
    res.add("peak_rss_mb", rss_mb, "MB");
    res.add("device_ms_p50", p50, "ms");
    res.add("device_ms_tail", tail, "ms");
    res.add("unit_ok_ratio", 1.0 - fail_ratio, "ratio");
    res.add("output_mb", median(output_mb), "MB");
    res.print(chk.failed() == 0, chk.attempted(), chk.failed());
    return 0;
}

// ---------------------------------------------------------------- traced

/// Timing shim in front of a node's ingress. Link::send only schedules
/// delivery, so a shim never runs inside another: its span is self time.
class TimingShim final : public sim::FrameSink {
public:
    void wrap(sim::Link& link, sim::FrameSink& next) {
        next_ = &next;
        link.attach(sim::Link::Side::A, *this);
    }
    void frame_in(sim::Frame frame) override {
        const auto t0 = Clock::now();
        next_->frame_in(std::move(frame));
        ns += ns_between(t0, Clock::now());
        ++frames;
    }

    std::int64_t ns = 0;
    std::uint64_t frames = 0;

private:
    sim::FrameSink* next_ = nullptr;
};

enum Stage { kClient, kServer, kGatewayLan, kCgnAccess, kStages };
constexpr std::array<const char*, kStages> kStageNames{
    "stack.client", "stack.server", "gateway.lan", "cgn.access"};

/// Counters read from the benchmark-owned registry (see NOTES.md).
struct Counts {
    std::array<std::uint64_t, 10> v{};
    static constexpr std::array<const char*, 10> kNames{
        "gateway.nat.bindings_created", "gateway.nat.bindings_expired",
        "gateway.nat.bindings_refused", "gateway.nat.icmp_translated",
        "gateway.fwd.forwarded",        "gateway.fwd.dropped",
        "stack.tcp.retransmits",        "sim.link.tx_drops",
        "gateway.dns.queries",          "gateway.fwd.offered"};

    void add(const obs::MetricsRegistry& reg) {
        const std::uint64_t fwd = reg.counter_total("fwd.forwarded");
        const std::uint64_t drop = reg.counter_total("fwd.dropped");
        v[0] += reg.counter_total("nat.binding.created");
        v[1] += reg.counter_total("nat.binding.expired");
        v[2] += reg.counter_total("nat.binding.refused");
        v[3] += reg.counter_total("nat.icmp.translated");
        v[4] += fwd;
        v[5] += drop;
        v[6] += reg.counter_total("tcp.retransmits");
        v[7] += reg.counter_total("link.tx.drops");
        v[8] += reg.counter_total("dns.udp.queries") +
                reg.counter_total("dns.tcp.accepted");
        v[9] += fwd + drop;
    }
};

enum class Pass { Plain, Shims, Counting };

struct Replay {
    std::int64_t device_ns = 0;  ///< testbed build + bring-up + campaign
    std::int64_t bringup_ns = 0; ///< testbed build + bring-up
    std::int64_t loop_ns = 0;    ///< Testrund::run_blocking
    std::uint64_t events = 0;
    std::array<TimingShim, kStages> shims;
    std::uint64_t tap_frames = 0;
    std::uint64_t tap_bytes = 0;
    Counts counts;
};

void replay_device(const Workload& w, const Args& a, int k, Pass pass,
                   Replay& out, Checker& chk) {
    // Declared before the testbed, which keeps raw pointers into them.
    sim::EventLoop loop;
    std::unique_ptr<obs::Observability> obs;
    std::array<TimingShim, kStages> shims;
    std::ofstream ts_out;
    std::unique_ptr<obs::TimeseriesSampler> ts;

    const auto t0 = Clock::now();
    harness::Testbed tb(loop);
    const int slot_i = add_device(tb, w, k);
    if (pass == Pass::Counting) {
        obs = std::make_unique<obs::Observability>(loop);
        tb.attach_observability(obs.get());
        // The population bench's shipping sidecar, so this pass also
        // prices observation (obs.overhead_ratio).
        ts_out.open(fs::path(a.scratch_dir) / "replay_timeseries.jsonl",
                    std::ios::binary | std::ios::trunc);
        obs::TimeseriesSampler::Options tso;
        tso.device = harness::Testbed::device_label(tb.slot(slot_i));
        tso.shard = k;
        ts = std::make_unique<obs::TimeseriesSampler>(obs->metrics(),
                                                      ts_out, tso);
        loop.set_advance_hook(ts.get());
    }
    tb.start_and_wait();
    const auto t1 = Clock::now();

    auto& slot = tb.slot(slot_i);
    if (pass == Pass::Shims) {
        shims[kClient].wrap(tb.client_trunk(), tb.client().nic());
        shims[kServer].wrap(tb.server_trunk(), tb.server().nic());
        shims[kGatewayLan].wrap(*slot.lan_link, slot.gw->host().nic());
        if (slot.cgn_group >= 0) {
            auto& grp = tb.cgn_group(slot.cgn_group);
            shims[kCgnAccess].wrap(*grp.access_link, grp.cgn->host().nic());
        }
    }
    const std::uint64_t e0 = loop.events_processed();
    const auto t2 = Clock::now();
    auto results = harness::Testrund(tb).run_blocking(device_config(w, k));
    const auto t3 = Clock::now();
    if (ts) {
        loop.set_advance_hook(nullptr);
        ts->finish(loop.now());
    }

    out.device_ns += ns_between(t0, t3);
    out.bringup_ns += ns_between(t0, t1);
    out.loop_ns += ns_between(t2, t3);
    out.events += loop.events_processed() - e0;
    for (int s = 0; s < kStages; ++s) {
        out.shims[s].ns += shims[s].ns;
        out.shims[s].frames += shims[s].frames;
    }
    out.tap_frames += slot.wan_tap.records().size();
    for (const auto& rec : slot.wan_tap.records())
        out.tap_bytes += rec.frame.size();
    if (obs) out.counts.add(obs->metrics());
    chk.check(k, results.at(0));
}

int run_traced(const Args& a) {
    const Workload w = make_workload(a);
    Checker chk(w, a);
    // Passes alternate per device, so drift in machine speed reaches the
    // plain pass and the passes compared with it alike. One warm-up
    // replay first, checked but not counted.
    Replay warm, plain, traced, count1, count2;
    replay_device(w, a, 0, Pass::Plain, warm, chk);
    for (int k = 0; k < static_cast<int>(w.roster.size()); ++k) {
        replay_device(w, a, k, Pass::Plain, plain, chk);
        replay_device(w, a, k, Pass::Shims, traced, chk);
        replay_device(w, a, k, Pass::Counting, count1, chk);
        replay_device(w, a, k, Pass::Counting, count2, chk);
    }
    fs::remove(fs::path(a.scratch_dir) / "replay_timeseries.jsonl");

    const bool counts_repeat = count1.counts.v == count2.counts.v;
    std::int64_t shim_ns = 0;
    for (const auto& s : traced.shims) shim_ns += s.ns;
    const std::int64_t residual_ns = traced.loop_ns - shim_ns;
    const auto loop_ns = static_cast<double>(traced.loop_ns);
    const auto share = [&](std::int64_t ns) {
        return static_cast<double>(ns) / loop_ns;
    };
    const auto per_frame = [](const TimingShim& s) {
        return s.frames > 0 ? static_cast<double>(s.ns) /
                                  static_cast<double>(s.frames)
                            : 0.0;
    };

    char line[160];
    std::cout << "workload " << w.name << " (traced): " << w.roster.size()
              << " devices, inputs " << w.input_id << " (" << w.params
              << ")\n"
              << "  per-layer self time, shim pass (ingress spans never "
                 "nest; residual = loop - shims):\n";
    std::snprintf(line, sizeof(line), "  %-14s %12s %12s %8s %12s\n",
                  "stage", "frames", "self_ms", "share", "ns/frame");
    std::cout << line;
    for (int s = 0; s < kStages; ++s) {
        const auto& sh = traced.shims[s];
        std::snprintf(line, sizeof(line),
                      "  %-14s %12" PRIu64 " %12.3f %8.4f %12.1f\n",
                      kStageNames[s], sh.frames,
                      static_cast<double>(sh.ns) * 1e-6, share(sh.ns),
                      per_frame(sh));
        std::cout << line;
    }
    std::snprintf(line, sizeof(line), "  %-14s %12s %12.3f %8.4f\n",
                  "residual", "", static_cast<double>(residual_ns) * 1e-6,
                  share(residual_ns));
    std::cout << line;
    std::snprintf(line, sizeof(line),
                  "  %-14s %12" PRIu64 " %12.3f %8.4f   (events; sum of "
                  "the rows above)\n",
                  "sim.loop", traced.events, loop_ns * 1e-6,
                  share(shim_ns + residual_ns));
    std::cout << line;
    std::cout << "  counting passes (benchmark-owned registry):"
              << (counts_repeat ? " repeat exactly\n" : " DIFFER\n");
    for (std::size_t i = 0; i < Counts::kNames.size(); ++i)
        std::cout << "    " << Counts::kNames[i] << " " << count1.counts.v[i]
                  << (count1.counts.v[i] == count2.counts.v[i]
                          ? ""
                          : " (second pass " +
                                std::to_string(count2.counts.v[i]) + ")")
                  << "\n";
    std::cout << "  result digests: " << chk.mismatched()
              << " of " << 4 * w.roster.size() + 1
              << " device replays differ from the reference\n";

    const auto n = static_cast<double>(w.roster.size());
    const auto& cnt = count1.counts.v;
    const double offered = static_cast<double>(cnt[9]);
    Result res;
    res.add("sim.events", static_cast<double>(traced.events), "count");
    res.add("sim.loop_ms", loop_ns * 1e-6, "ms");
    res.add("sim.ns_per_event", loop_ns / static_cast<double>(traced.events),
            "ns");
    for (int s = 0; s < kStages; ++s) {
        const std::string name = kStageNames[s];
        res.add(name + ".rx_frames",
                static_cast<double>(traced.shims[s].frames), "count");
        // A stage no frame reaches (the CGN outside nat444_bulk) has no
        // per-frame time; its frame count and share say so.
        if (s != kCgnAccess)
            res.add(name + ".rx_ns_per_frame", per_frame(traced.shims[s]),
                    "ns");
        res.add(name + ".share", share(traced.shims[s].ns), "ratio");
    }
    res.add("residual.share", share(residual_ns), "ratio");
    res.add("pcap.wan_tap_frames", static_cast<double>(traced.tap_frames),
            "count");
    res.add("pcap.wan_tap_mb", static_cast<double>(traced.tap_bytes) / 1e6,
            "MB");
    res.add("harness.bringup_ms",
            static_cast<double>(plain.bringup_ns) * 1e-6 / n, "ms");
    res.add("obs.overhead_ratio",
            static_cast<double>(count1.device_ns + count2.device_ns) /
                (2.0 * static_cast<double>(plain.device_ns)),
            "ratio");
    res.add("trace.overhead_ratio",
            loop_ns / static_cast<double>(plain.loop_ns), "ratio");
    for (std::size_t i = 0; i + 1 < Counts::kNames.size(); ++i)
        res.add(Counts::kNames[i], static_cast<double>(cnt[i]), "count");
    res.add("gateway.fwd.delivery_ratio",
            offered > 0 ? static_cast<double>(cnt[4]) / offered : 1.0,
            "ratio");
    res.add("gateway.fwd.offered", offered, "count");

    const bool correct =
        chk.failed() == 0 && counts_repeat && residual_ns >= 0;
    res.print(correct, chk.attempted(), chk.failed());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const Args a = parse_args(argc, argv);
    try {
        fs::create_directories(a.scratch_dir);
        return a.trace ? run_traced(a) : run_end_to_end(a);
    } catch (const std::exception& e) {
        std::cerr << "campaign_bench: " << e.what() << "\n";
        return 2;
    }
}
