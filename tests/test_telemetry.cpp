// Campaign telemetry: the log2-bucketed histogram sketch (merge
// algebra, bucket resolution), the streaming time-series sink, the
// harness self-profiler, and the flight-dump manifest — plus the load-
// bearing invariant behind all of them: turning telemetry on must not
// change a single campaign byte, at any worker count, including across
// a kill/resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "devices/profiles.hpp"
#include "harness/results_io.hpp"
#include "harness/testrund.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "report/json.hpp"

using namespace gatekit;
using harness::ShardScheduler;
using obs::LogHistogram;

namespace {

/// splitmix64, so the "random" observation streams are reproducible.
std::uint64_t mix64(std::uint64_t& state) {
    std::uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Integer-valued observations spanning ~19 octaves (sub-1 underflow
/// values included). Integer-valued so double sums are exact and the
/// associativity check below can demand bitwise equality.
std::vector<double> sample_values(std::uint64_t seed, int n) {
    std::vector<double> vs;
    vs.reserve(static_cast<std::size_t>(n));
    std::uint64_t s = seed;
    for (int i = 0; i < n; ++i) {
        const int octave = static_cast<int>(mix64(s) % 20);
        const double base = std::ldexp(1.0, octave - 1); // 0.5 .. 2^18
        vs.push_back(std::floor(
            base + static_cast<double>(mix64(s) % 1000) * base / 1000.0));
    }
    return vs;
}

LogHistogram hist_of(const std::vector<double>& vs) {
    LogHistogram h;
    for (const double v : vs) h.observe(v);
    return h;
}

void expect_same(const LogHistogram& a, const LogHistogram& b,
                 const char* what) {
    EXPECT_EQ(a.total, b.total) << what;
    EXPECT_EQ(a.sum, b.sum) << what;
    EXPECT_EQ(a.min, b.min) << what;
    EXPECT_EQ(a.max, b.max) << what;
    const std::size_t n = std::max(a.counts.size(), b.counts.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t ca = i < a.counts.size() ? a.counts[i] : 0;
        const std::uint64_t cb = i < b.counts.size() ? b.counts[i] : 0;
        EXPECT_EQ(ca, cb) << what << " bucket " << i;
    }
    for (const double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(a.percentile(q), b.percentile(q)) << what << " p" << q;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void spit(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

std::string results_json(const std::vector<harness::DeviceResults>& rs) {
    std::string out;
    for (const auto& r : rs) out += harness::device_results_json(r) + "\n";
    return out;
}

std::vector<gateway::DeviceProfile> roster4() {
    const auto& all = devices::all_profiles();
    return {all.begin(), all.begin() + 4};
}

harness::CampaignConfig quick_campaign() {
    harness::CampaignConfig cfg;
    cfg.udp4 = cfg.icmp = cfg.dns = true;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------- sketch

TEST(LogHistogram, MergeIsAssociativeAndCommutative) {
    // Three disjoint observation streams; every grouping of the merge
    // must equal the histogram of the concatenated stream, bit for bit.
    // (Values are integers, so even `sum` is exact under reassociation.)
    const auto va = sample_values(1, 400);
    const auto vb = sample_values(2, 700);
    const auto vc = sample_values(3, 151);

    std::vector<double> all = va;
    all.insert(all.end(), vb.begin(), vb.end());
    all.insert(all.end(), vc.begin(), vc.end());
    const LogHistogram direct = hist_of(all);

    LogHistogram left = hist_of(va); // (A + B) + C
    left.merge(hist_of(vb));
    left.merge(hist_of(vc));
    expect_same(left, direct, "(A+B)+C vs A||B||C");

    LogHistogram right = hist_of(vb); // A + (B + C)
    right.merge(hist_of(vc));
    LogHistogram a_first = hist_of(va);
    a_first.merge(right);
    expect_same(a_first, direct, "A+(B+C) vs A||B||C");

    LogHistogram ba = hist_of(vb); // B + A == A + B
    ba.merge(hist_of(va));
    LogHistogram ab = hist_of(va);
    ab.merge(hist_of(vb));
    expect_same(ab, ba, "A+B vs B+A");

    LogHistogram with_empty = hist_of(va); // identity element
    with_empty.merge(LogHistogram{});
    expect_same(with_empty, hist_of(va), "A+0 vs A");
}

TEST(LogHistogram, BucketResolutionAndMonotonicity) {
    // Every bucket's upper edge over-reports its members by at most
    // 1/kSubBuckets (12.5%), and the index is monotone in the value.
    std::uint64_t s = 7;
    std::size_t prev_idx = 0;
    double prev_v = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double v = std::ldexp(
            1.0 + static_cast<double>(mix64(s) % 4096) / 4096.0,
            static_cast<int>(mix64(s) % 40));
        const std::size_t idx = LogHistogram::bucket_index(v);
        const double upper = LogHistogram::bucket_upper(idx);
        EXPECT_GE(upper, v);
        EXPECT_LE(upper, v * (1.0 + 1.0 / LogHistogram::kSubBuckets) *
                             (1.0 + 1e-12));
        if (v >= prev_v)
            EXPECT_GE(idx, prev_idx);
        else
            EXPECT_LE(idx, prev_idx);
        prev_idx = idx;
        prev_v = v;
    }
    // Underflow and non-finite land in bucket 0; huge values clip.
    EXPECT_EQ(LogHistogram::bucket_index(0.0), 0u);
    EXPECT_EQ(LogHistogram::bucket_index(0.999), 0u);
    EXPECT_EQ(LogHistogram::bucket_index(-5.0), 0u);
    EXPECT_EQ(LogHistogram::bucket_index(std::nan("")), 0u);
    EXPECT_EQ(LogHistogram::bucket_index(std::ldexp(1.0, 80)),
              LogHistogram::kBucketCount - 1);
}

TEST(LogHistogram, PercentilesClampToObservedRange) {
    LogHistogram h;
    h.observe(100.0);
    // One observation: every quantile is that observation, not the
    // bucket's upper edge.
    EXPECT_EQ(h.percentile(0.5), 100.0);
    EXPECT_EQ(h.percentile(0.999), 100.0);
    h.observe(200.0);
    EXPECT_LE(h.percentile(0.999), 200.0);
    EXPECT_GE(h.percentile(0.01), 100.0);
}

// ------------------------------------------------------------ validators

TEST(Timeseries, ValidatorAcceptsConcatenatedSegmentsAndCatchesDamage) {
    std::string error;
    const auto valid = [&error](const std::string& text) {
        std::istringstream in(text);
        return obs::validate_timeseries(in, &error);
    };
    const std::string good =
        R"({"schema":"gatekit.timeseries.v1","interval_ms":1000,"device":"a","shard":0})"
        "\n"
        R"({"series":0,"name":"x","labels":{},"kind":"counter"})"
        "\n"
        R"({"t_ns":0,"v":[[0,1]]})"
        "\n"
        R"({"t_ns":1000000000,"v":[[0,2]]})"
        "\n"
        // Second segment: ids restart from 0 — still valid.
        R"({"schema":"gatekit.timeseries.v1","interval_ms":1000,"device":"b","shard":1})"
        "\n"
        R"({"series":0,"name":"x","labels":{},"kind":"counter"})"
        "\n"
        R"({"t_ns":5,"v":[[0,7]]})"
        "\n";
    EXPECT_TRUE(valid(good)) << error;

    const std::string regressing =
        R"({"schema":"gatekit.timeseries.v1","interval_ms":1000,"device":"a","shard":0})"
        "\n"
        R"({"series":0,"name":"x","labels":{},"kind":"counter"})"
        "\n"
        R"({"t_ns":1000,"v":[[0,1]]})"
        "\n"
        R"({"t_ns":999,"v":[[0,2]]})"
        "\n";
    EXPECT_FALSE(valid(regressing));

    const std::string undeclared =
        R"({"schema":"gatekit.timeseries.v1","interval_ms":1000,"device":"a","shard":0})"
        "\n"
        R"({"t_ns":0,"v":[[3,1]]})"
        "\n";
    EXPECT_FALSE(valid(undeclared));

    EXPECT_FALSE(valid("{\"t_ns\":0}\n"));

    // Ids and timestamps that are not non-negative integer tokens are
    // rejected, not cast.
    const std::string declared =
        R"({"schema":"gatekit.timeseries.v1","interval_ms":1000,"device":"a","shard":0})"
        "\n"
        R"({"series":0,"name":"x","labels":{},"kind":"counter"})"
        "\n";
    EXPECT_TRUE(valid(declared + R"({"t_ns":0,"v":[[0,1]]})" "\n")) << error;
    EXPECT_FALSE(valid(
        declared + R"({"series":-1,"name":"y","labels":{},"kind":"counter"})"
                   "\n"));
    EXPECT_FALSE(valid(declared + R"({"t_ns":0,"v":[[1e300,1]]})" "\n"));
    EXPECT_FALSE(valid(declared + R"({"t_ns":0,"v":[[0.5,1]]})" "\n"));
    EXPECT_FALSE(valid(declared + R"({"t_ns":1e300,"v":[[0,1]]})" "\n"));
}

// ------------------------------------------------ push vs poll sampler

namespace {

/// The time-series sampler as it first shipped, kept as the reference
/// for the push-based one: at every boundary it visits every registered
/// counter and gauge and emits those whose value differs from the last
/// value it emitted for that series.
class PollReference final : public sim::AdvanceHook {
public:
    PollReference(const obs::MetricsRegistry& reg, std::ostream& out,
                  obs::TimeseriesSampler::Options opts)
        : reg_(reg), out_(out), opts_(std::move(opts)) {
        report::JsonWriter w(out_);
        w.begin_object();
        w.key("schema").value("gatekit.timeseries.v1");
        w.key("interval_ms")
            .value(static_cast<std::int64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    opts_.interval)
                    .count()));
        w.key("device").value(opts_.device);
        w.key("shard").value(static_cast<std::int64_t>(opts_.shard));
        w.end_object();
        out_ << '\n';
    }

    sim::TimePoint on_advance(sim::TimePoint t) override {
        const std::int64_t iv = opts_.interval.count();
        const std::int64_t k = t.count() / iv;
        sample(sim::TimePoint(sim::Duration(k * iv)));
        return sim::TimePoint(sim::Duration((k + 1) * iv));
    }

    void finish(sim::TimePoint end) { sample(end, /*force=*/true); }

private:
    void sample(sim::TimePoint stamp, bool force = false) {
        if (!force && stamp.count() <= last_stamp_ns_) return;
        struct Changed {
            std::size_t id;
            double value;
            bool integral;
        };
        std::vector<Changed> changed;
        for (std::uint32_t id = 0; id < reg_.scalar_count(); ++id) {
            const obs::MetricsRegistry::ScalarRef s = reg_.scalar(id);
            if (id >= prev_.size()) {
                prev_.resize(id + 1, 0.0);
                declared_.resize(id + 1, 0);
            }
            const bool integral = s.counter != nullptr;
            const double v = integral ? static_cast<double>(s.counter->value)
                                      : s.gauge->value;
            if (v != prev_[id]) {
                changed.push_back({id, v, integral});
                prev_[id] = v;
                if (declared_[id] == 0) {
                    declared_[id] = 1;
                    report::JsonWriter w(out_);
                    w.begin_object();
                    w.key("series").value(static_cast<std::uint64_t>(id));
                    w.key("name").value(s.name);
                    w.key("labels").begin_object();
                    for (const auto& [lk, lv] : s.labels) w.key(lk).value(lv);
                    w.end_object();
                    w.key("kind").value(integral ? "counter" : "gauge");
                    w.end_object();
                    out_ << '\n';
                }
            }
        }
        if (changed.empty()) return;
        last_stamp_ns_ = std::max(last_stamp_ns_, stamp.count());
        report::JsonWriter w(out_);
        w.begin_object();
        w.key("t_ns").value(static_cast<std::int64_t>(stamp.count()));
        w.key("v").begin_array();
        for (const Changed& c : changed) {
            w.begin_array();
            w.value(static_cast<std::uint64_t>(c.id));
            if (c.integral)
                w.value(static_cast<std::uint64_t>(c.value));
            else
                w.value(c.value);
            w.end_array();
        }
        w.end_array();
        w.end_object();
        out_ << '\n';
    }

    const obs::MetricsRegistry& reg_;
    std::ostream& out_;
    obs::TimeseriesSampler::Options opts_;
    std::vector<double> prev_;
    std::vector<char> declared_;
    std::int64_t last_stamp_ns_ = -1;
};

struct SamplerStreams {
    std::string push;
    std::string poll;
    std::uint64_t push_lines = 0;
};

/// One seeded script against a sampled registry, observed by both
/// samplers at the same boundaries: counters, gauges and histograms
/// registered in mixed order (some after sampling has begun, some twice),
/// writes that change nothing (add 0, a gauge set away and back), merges
/// into the sampled registry, clock steps from zero to idle jumps across
/// hundreds of boundaries, and a final flush at the last boundary.
SamplerStreams run_sampler_script(std::uint64_t seed) {
    std::uint64_t state = seed;
    const auto pick = [&state](std::uint64_t n) {
        return static_cast<std::int64_t>(mix64(state) % n);
    };
    static const std::int64_t kIntervals[] = {1'000'000, 7'000'000,
                                              1'000'000'000};
    // Gauge values around the edges of the shortest-form rendering:
    // 10000 prints as "10000.0" but 100000 as "1e+05", -0.0 keeps its
    // sign, and large integral values switch to exponent form.
    static const double kGaugeValues[] = {
        0.0,    0.5,    1.0,      2.25,      -3.0,  1e-9,  12345.678,
        9999.0, 10000.0, 99999.0, 100000.0, 123456.0, 1e15, 1e16,
        -0.0,   -7.0,   -99999.0, -100000.0, -0.125, 3.5e-7, 1e21};
    constexpr auto kGaugeCount = std::size(kGaugeValues);
    const std::vector<obs::Labels> label_sets = {
        {},
        {{"device", "a"}},
        {{"device", "b"}, {"k", "x=y;z"}},
        {{"q\"", "\\"}, {"device", "a"}},
    };

    obs::MetricsRegistry reg;
    obs::TimeseriesSampler::Options opts;
    opts.interval = sim::Duration(kIntervals[pick(3)]);
    opts.device = "dev\"" + std::to_string(seed);
    opts.shard = static_cast<int>(pick(5)) - 1;
    const std::int64_t iv = opts.interval.count();

    std::ostringstream push_out;
    std::ostringstream poll_out;
    obs::TimeseriesSampler push(reg, push_out, opts);
    PollReference poll(reg, poll_out, opts);

    std::vector<obs::Counter*> counters;
    std::vector<obs::Gauge*> gauges;
    std::vector<obs::LogHistogram*> hists;
    const auto name = [&pick](char kind) {
        return std::string(1, kind) + std::to_string(pick(4));
    };
    const auto register_one = [&] {
        const obs::Labels& labels =
            label_sets[static_cast<std::size_t>(pick(4))];
        switch (pick(3)) {
        case 0: counters.push_back(reg.counter(name('c'), labels)); break;
        case 1: gauges.push_back(reg.gauge(name('g'), labels)); break;
        default: hists.push_back(reg.log_histogram(name('h'), labels)); break;
        }
    };
    const auto merge_one = [&] {
        obs::MetricsRegistry other;
        for (std::int64_t i = 1 + pick(4); i > 0; --i) {
            const obs::Labels& labels =
                label_sets[static_cast<std::size_t>(pick(4))];
            switch (pick(3)) {
            case 0:
                obs::add(other.counter(name('c'), labels),
                         static_cast<std::uint64_t>(pick(3)));
                break;
            case 1:
                obs::set(other.gauge(name('g'), labels),
                         kGaugeValues[pick(kGaugeCount)]);
                break;
            default:
                obs::observe(other.log_histogram(name('h'), labels),
                             static_cast<double>(pick(5000)));
                break;
            }
        }
        reg.merge_from(other);
    };

    for (std::int64_t i = 1 + pick(4); i > 0; --i) register_one();

    sim::TimePoint now{};
    sim::TimePoint due{};
    const auto advance = [&](sim::TimePoint t) {
        now = t;
        if (now < due) return;
        due = push.on_advance(now);
        EXPECT_EQ(poll.on_advance(now), due);
    };
    const auto step_op = [&] {
        switch (pick(8)) {
        case 0: register_one(); break;
        case 1:
            if (!counters.empty())
                obs::inc(counters[static_cast<std::size_t>(
                    pick(static_cast<std::uint64_t>(counters.size())))]);
            break;
        case 2:
            if (!counters.empty()) {
                // Now and then a jump past 2^53, where a counter's
                // double image no longer holds every value.
                const std::uint64_t n =
                    pick(3) == 0   ? 0
                    : pick(8) == 0 ? (std::uint64_t{1} << 53) +
                                         static_cast<std::uint64_t>(
                                             pick(1000))
                                   : static_cast<std::uint64_t>(pick(1000));
                obs::add(counters[static_cast<std::size_t>(pick(
                             static_cast<std::uint64_t>(counters.size())))],
                         n);
            }
            break;
        case 3:
        case 4:
            if (!gauges.empty()) {
                obs::Gauge* g = gauges[static_cast<std::size_t>(
                    pick(static_cast<std::uint64_t>(gauges.size())))];
                const double old = g->value;
                obs::set(g, kGaugeValues[pick(kGaugeCount)]);
                if (pick(3) == 0) obs::set(g, old); // away and back
            }
            break;
        case 5:
            if (!hists.empty())
                obs::observe(hists[static_cast<std::size_t>(
                                 pick(static_cast<std::uint64_t>(
                                     hists.size())))],
                             static_cast<double>(pick(100000)));
            break;
        default: merge_one(); break;
        }
    };

    for (std::int64_t steps = 50 + pick(150); steps > 0; --steps) {
        switch (pick(10)) {
        case 0: break; // another write at the same instant
        case 1:
        case 2: advance(due); break; // exactly on a boundary
        case 3:
        case 4:
        case 5: advance(now + sim::Duration(pick(iv / 2 + 1))); break;
        case 6:
        case 7: advance(now + sim::Duration(pick(3 * iv))); break;
        case 8: // idle jump across many boundaries
            advance(now + sim::Duration(iv * (10 + pick(1000)) + pick(iv)));
            break;
        default: advance(now + sim::Duration(iv)); break;
        }
        step_op();
    }
    // End on a boundary with writes at it, as a campaign's last handlers
    // run at the boundary its final sample stamped.
    advance(due);
    step_op();
    push.finish(now);
    poll.finish(now);
    return {std::move(push_out).str(), std::move(poll_out).str(),
            push.lines_emitted()};
}

} // namespace

TEST(Timeseries, PushSamplerMatchesPollReference) {
    std::size_t with_samples = 0;
    for (std::uint64_t seed = 0; seed < 240; ++seed) {
        const SamplerStreams s = run_sampler_script(seed);
        ASSERT_EQ(s.push, s.poll) << "seed " << seed;
        EXPECT_EQ(s.push_lines, static_cast<std::uint64_t>(std::count(
                                    s.push.begin(), s.push.end(), '\n')))
            << "seed " << seed;
        std::istringstream in(s.push);
        std::string error;
        EXPECT_TRUE(obs::validate_timeseries(in, &error))
            << "seed " << seed << ": " << error;
        if (s.push.find("\"t_ns\"") != std::string::npos) ++with_samples;
    }
    // The scripts must exercise emission, not just agree on silence.
    EXPECT_GT(with_samples, 200u);
}

TEST(Profile, ValidatorRequiresHeaderAndTypedFields) {
    std::string error;
    const auto valid = [&error](const std::string& text) {
        std::istringstream in(text);
        return obs::validate_profile(in, &error);
    };
    const std::string header =
        R"({"schema":"gatekit.profile.v1","workers":1,"devices":1})"
        "\n";
    const std::string shard =
        R"({"type":"shard","shard":0,"device":"a","worker":0,"units":1,"wall_ns":5})"
        "\n";
    EXPECT_TRUE(valid(header + shard)) << error;

    EXPECT_FALSE(valid(shard)); // no header
    EXPECT_FALSE(valid(""));
    EXPECT_FALSE(valid(header + R"({"type":"shard","shard":0})" "\n"));
    EXPECT_FALSE(valid(header + R"({"type":"bogus"})" "\n"));
    EXPECT_FALSE(valid(header + "{\"type\":\"shard\",\n"));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// ----------------------------------------------------- campaign identity

TEST(Telemetry, CampaignBytesIdenticalWithTelemetryOnAtAnyWorkerCount) {
    // Reference: no telemetry, one worker.
    const std::string ref_journal = "test_telemetry_ref.jsonl";
    std::remove(ref_journal.c_str());
    ShardScheduler::Options ref_opts;
    ref_opts.roster = roster4();
    ref_opts.config = quick_campaign();
    ref_opts.workers = 1;
    ref_opts.journal_path = ref_journal;
    const auto ref = ShardScheduler::run(ref_opts);
    const std::string ref_results = results_json(ref.results);
    const std::string ref_journal_text = slurp(ref_journal);
    std::remove(ref_journal.c_str());
    ASSERT_FALSE(ref_results.empty());

    std::string ts_ref;
    for (const int workers : {1, 8}) {
        const std::string stem =
            "test_telemetry_w" + std::to_string(workers);
        ShardScheduler::Options opts = ref_opts;
        opts.workers = workers;
        opts.journal_path = stem + ".jsonl";
        opts.timeseries_path = stem + "_ts.jsonl";
        opts.profile_path = stem + "_prof.jsonl";
        std::remove(opts.journal_path.c_str());
        const auto got = ShardScheduler::run(opts);

        // The measurement stream must not notice the telemetry.
        EXPECT_EQ(results_json(got.results), ref_results)
            << "workers=" << workers;
        EXPECT_EQ(slurp(opts.journal_path), ref_journal_text)
            << "workers=" << workers;

        std::string error;
        const std::string ts = slurp(opts.timeseries_path);
        std::istringstream ts_in(ts);
        EXPECT_TRUE(obs::validate_timeseries(ts_in, &error)) << error;
        EXPECT_NE(ts.find("\"t_ns\""), std::string::npos)
            << "time-series stream carries no samples";
        // Sim-time-stamped output is itself byte-gated across workers.
        if (ts_ref.empty())
            ts_ref = ts;
        else
            EXPECT_EQ(ts, ts_ref) << "workers=" << workers;

        const std::string prof = slurp(opts.profile_path);
        std::istringstream prof_in(prof);
        EXPECT_TRUE(obs::validate_profile(prof_in, &error)) << error;
        EXPECT_NE(prof.find("\"type\":\"span\""), std::string::npos);
        EXPECT_NE(prof.find("\"type\":\"summary\""), std::string::npos);

        std::remove(opts.journal_path.c_str());
        std::remove(opts.timeseries_path.c_str());
        std::remove(opts.profile_path.c_str());
    }
}

TEST(Telemetry, ResumeWithTimeseriesSinkActive) {
    // Full reference run with the sink on...
    const std::string journal = "test_telemetry_resume.jsonl";
    const std::string ts_path = "test_telemetry_resume_ts.jsonl";
    std::remove(journal.c_str());
    ShardScheduler::Options opts;
    opts.roster = roster4();
    opts.config = quick_campaign();
    opts.workers = 1;
    opts.journal_path = journal;
    opts.timeseries_path = ts_path;
    const auto ref = ShardScheduler::run(opts);
    const std::string ref_results = results_json(ref.results);
    const std::string ref_journal = slurp(journal);

    // ...then kill at a device record (header + two records: devices 0
    // and 1 finished, 2 and 3 rerun) and resume at two worker counts.
    std::vector<std::string> lines;
    {
        std::istringstream in(ref_journal);
        for (std::string l; std::getline(in, l);)
            if (!l.empty()) lines.push_back(l);
    }
    ASSERT_EQ(lines.size(), 5u); // header + 4 devices
    for (const int workers : {1, 2}) {
        std::string prefix;
        for (std::size_t i = 0; i < 3; ++i) prefix += lines[i] + "\n";
        spit(journal, prefix);
        ShardScheduler::Options ropts = opts;
        ropts.workers = workers;
        ropts.resume = true;
        const auto got = ShardScheduler::run(ropts);
        EXPECT_EQ(results_json(got.results), ref_results)
            << "workers=" << workers;
        EXPECT_EQ(slurp(journal), ref_journal) << "workers=" << workers;
        // The resumed stream covers the rerun devices only, but it must
        // still validate.
        std::string error;
        std::ifstream ts_in(ts_path, std::ios::binary);
        EXPECT_TRUE(obs::validate_timeseries(ts_in, &error)) << error;
    }
    std::remove(journal.c_str());
    std::remove(ts_path.c_str());
}

// -------------------------------------------------------- flight manifest

TEST(Telemetry, FlightDumpManifestListsShardsInCanonicalOrder) {
    // An impossible soft deadline forces one retry per device, and every
    // retry dumps the flight recorder — so each shard writes
    // <trace>.shard<k>.flight.0.jsonl deterministically.
    harness::CampaignConfig cfg;
    cfg.udp1 = true;
    cfg.udp.repetitions = 2;
    cfg.supervisor.soft_deadline = std::chrono::minutes(10);
    cfg.supervisor.max_attempts = 2;
    const auto& all = devices::all_profiles();

    std::string manifest_ref;
    for (const int workers : {1, 2}) {
        const std::string trace =
            "test_telemetry_flight_w" + std::to_string(workers) + ".jsonl";
        ShardScheduler::Options opts;
        opts.roster = {all.begin(), all.begin() + 2};
        opts.config = cfg;
        opts.workers = workers;
        opts.trace_path = trace;
        const auto out = ShardScheduler::run(opts);
        ASSERT_EQ(out.results.size(), 2u);

        const std::string manifest = slurp(trace + ".flight.manifest");
        ASSERT_FALSE(manifest.empty()) << "workers=" << workers;
        // Canonical device order, independent of which worker dumped.
        std::vector<std::string> entries;
        std::istringstream in(manifest);
        for (std::string l; std::getline(in, l);)
            if (!l.empty()) entries.push_back(l);
        ASSERT_GE(entries.size(), 2u);
        int last_shard = -1;
        for (const std::string& e : entries) {
            EXPECT_FALSE(slurp(e).empty()) << "missing dump " << e;
            const auto pos = e.find(".shard");
            ASSERT_NE(pos, std::string::npos) << e;
            const int shard = std::stoi(e.substr(pos + 6));
            EXPECT_GE(shard, last_shard) << "manifest out of order";
            last_shard = shard;
        }
        // Same manifest bytes at any worker count (paths only differ by
        // the stem this test chose).
        std::string normalized = manifest;
        const std::string stem = "_w" + std::to_string(workers);
        for (std::size_t p; (p = normalized.find(stem)) !=
                            std::string::npos;)
            normalized.erase(p, stem.size());
        if (manifest_ref.empty())
            manifest_ref = normalized;
        else
            EXPECT_EQ(normalized, manifest_ref);

        for (const std::string& e : entries) std::remove(e.c_str());
        std::remove((trace + ".flight.manifest").c_str());
        std::remove(trace.c_str());
    }
}
