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
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "devices/population.hpp"
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

namespace {

const std::string kStreamHeader =
    R"({"schema":"gatekit.timeseries.v2","interval_ms":1000})"
    "\n";
const std::string kSegmentA = R"({"device":"a","shard":0})" "\n";
const std::string kDeclX =
    R"({"series":0,"name":"x","labels":{},"kind":"counter"})"
    "\n";

/// validate_timeseries over `text`; the error lands in `error`.
bool valid(const std::string& text, std::string& error) {
    std::istringstream in(text);
    error.clear();
    return obs::validate_timeseries(in, &error);
}

} // namespace

TEST(Timeseries, ValidatorAcceptsConcatenatedSegmentsAndCatchesDamage) {
    std::string error;
    const std::string good =
        kStreamHeader + kSegmentA + kDeclX +
        "[0,0,1]\n"
        "[1,0,2]\n"
        R"({"end_ns":1500000000,"v":[0,3]})" "\n"
        // A second segment reuses the stream's series 0 and declares 1.
        R"({"device":"b","shard":1})" "\n"
        R"({"series":1,"name":"g","labels":{"k":"v"},"kind":"gauge"})" "\n"
        "[5,0,7,1,-2.5]\n";
    EXPECT_TRUE(valid(good, error)) << error;

    // The points come out with stamps decoded from the ticks.
    std::vector<std::string> seen;
    std::istringstream in(good);
    ASSERT_TRUE(obs::read_timeseries(
        in,
        [&](const obs::TimeseriesPoint& p) {
            seen.push_back(std::string(p.device) + ' ' +
                           std::to_string(p.shard) + ' ' +
                           std::to_string(p.stamp_ns) +
                           (p.end ? " end " : " ") + std::string(p.name) +
                           ' ' + std::string(p.kind) + ' ' +
                           report::json_serialize(p.value));
        },
        &error))
        << error;
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "a 0 0 x counter 1",
                        "a 0 1000000000 x counter 2",
                        "a 0 1500000000 end x counter 3",
                        "b 1 5000000000 x counter 7",
                        "b 1 5000000000 g gauge -2.5",
                    }));

    // Ids, ticks and stamps that are not non-negative integer tokens
    // are rejected, not cast.
    const std::string declared = kStreamHeader + kSegmentA + kDeclX;
    EXPECT_TRUE(valid(declared + "[0,0,1]\n", error)) << error;
    EXPECT_FALSE(valid(declared + "[0,1e300,1]\n", error));
    EXPECT_FALSE(valid(declared + "[0,0.5,1]\n", error));
    EXPECT_FALSE(valid(declared + "[1e300,0,1]\n", error));
    EXPECT_FALSE(valid(declared + "[0.5,0,1]\n", error));
    EXPECT_FALSE(valid(declared + R"({"end_ns":1e300,"v":[0,1]})" "\n",
                       error));
    EXPECT_FALSE(valid(declared + "[0,0,\"1\"]\n", error));
    // Other schemas are refused.
    EXPECT_FALSE(valid(R"({"schema":"gatekit.timeseries.v1","interval_ms":1000})"
                       "\n",
                       error));
    EXPECT_FALSE(valid("", error));
}

// Damaged and hostile streams: each fails cleanly, naming its line.
TEST(Timeseries, HostileStreamsFailWithALineNumber) {
    const std::string declared = kStreamHeader + kSegmentA + kDeclX;
    struct Case {
        const char* what;
        std::string text;
        const char* line; ///< expected "line N:" prefix of the error
    };
    const Case cases[] = {
        {"data before any header", "[0,0,1]\n", "line 1:"},
        {"declaration before the stream header", kDeclX + kStreamHeader,
         "line 1:"},
        {"sample before a segment header",
         kStreamHeader + kDeclX + "[0,0,1]\n", "line 3:"},
        {"stream header twice", kStreamHeader + kSegmentA + kStreamHeader,
         "line 3:"},
        {"zero interval", R"({"schema":"gatekit.timeseries.v2","interval_ms":0})" "\n",
         "line 1:"},
        {"undeclared id", declared + "[0,1,1]\n", "line 4:"},
        {"negative id", declared + "[0,-1,1]\n", "line 4:"},
        {"negative dt", declared + "[0,0,1]\n[-1,0,2]\n", "line 5:"},
        {"pair without a value", declared + "[0,0,1,0]\n", "line 4:"},
        {"sample with no pairs", declared + "[3]\n", "line 4:"},
        {"empty sample", declared + "[]\n", "line 4:"},
        {"end flush before the last sample",
         declared + "[2,0,1]\n" R"({"end_ns":1999999999,"v":[0,2]})" "\n",
         "line 5:"},
        {"end flush with an odd value array",
         declared + R"({"end_ns":5,"v":[0]})" "\n", "line 4:"},
        {"sample after the end flush",
         declared + R"({"end_ns":5,"v":[0,1]})" "\n" "[1,0,2]\n", "line 5:"},
        {"key declared twice",
         declared + R"({"series":1,"name":"x","labels":{},"kind":"counter"})" "\n",
         "line 4:"},
        {"id out of order",
         declared + R"({"series":2,"name":"y","labels":{},"kind":"counter"})" "\n",
         "line 4:"},
        {"negative declaration id",
         declared + R"({"series":-1,"name":"y","labels":{},"kind":"counter"})" "\n",
         "line 4:"},
        {"unknown kind",
         declared + R"({"series":1,"name":"y","labels":{},"kind":"meter"})" "\n",
         "line 4:"},
        {"declaration after its use",
         kStreamHeader + kSegmentA + "[0,0,1]\n" + kDeclX, "line 3:"},
        {"torn line", declared + "[0,0,", "line 4:"},
        {"garbage", declared + "\x01\xff{]\n", "line 4:"},
        {"segment header without a shard",
         kStreamHeader + R"({"device":"a"})" "\n", "line 2:"},
        {"tick overflow", declared + "[9223372036854775807,0,1]\n", "line 4:"},
        {"unknown object", declared + R"({"t_ns":0,"v":[[0,1]]})" "\n",
         "line 4:"},
    };
    for (const Case& c : cases) {
        std::string error;
        EXPECT_FALSE(valid(c.text, error)) << c.what;
        EXPECT_EQ(error.rfind(c.line, 0), 0u)
            << c.what << ": " << error;
    }
}

// ------------------------------------------------ push vs poll sampler

namespace {

/// The time-series sampler as it first shipped, kept as the reference
/// for the push-based one and brought to the v2 layout: at every
/// boundary it visits every registered counter and gauge, emits those
/// whose value differs from the last value it emitted for that series,
/// and renders every line through JsonWriter.
class PollReference final : public sim::AdvanceHook {
public:
    PollReference(const obs::MetricsRegistry& reg, std::ostream& out,
                  obs::TimeseriesSampler::Options opts)
        : reg_(reg), out_(out), opts_(std::move(opts)) {
        report::JsonWriter w(out_);
        w.begin_object();
        w.key("schema").value("gatekit.timeseries.v2");
        w.key("interval_ms")
            .value(static_cast<std::int64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    opts_.interval)
                    .count()));
        w.end_object();
        out_ << '\n';
        report::JsonWriter seg(out_);
        seg.begin_object();
        seg.key("device").value(opts_.device);
        seg.key("shard").value(static_cast<std::int64_t>(opts_.shard));
        seg.end_object();
        out_ << '\n';
    }

    sim::TimePoint on_advance(sim::TimePoint t) override {
        const std::int64_t iv = opts_.interval.count();
        const std::int64_t k = t.count() / iv;
        sample(sim::TimePoint(sim::Duration(k * iv)));
        return sim::TimePoint(sim::Duration((k + 1) * iv));
    }

    void finish(sim::TimePoint end) { sample(end, /*end=*/true); }

private:
    /// The series' name, labels and kind as a JSON object; `device` is
    /// left out when it names this segment's device.
    std::string key_of(const obs::MetricsRegistry::ScalarRef& s) const {
        std::ostringstream text;
        report::JsonWriter w(text);
        w.begin_object();
        w.key("name").value(s.name);
        w.key("labels").begin_object();
        for (const auto& [lk, lv] : s.labels)
            if (lk != "device" || lv != opts_.device) w.key(lk).value(lv);
        w.end_object();
        w.key("kind").value(s.counter != nullptr ? "counter" : "gauge");
        w.end_object();
        return text.str();
    }

    /// The stream id of scalar `id`, declared at its first change.
    std::uint64_t stream_id(std::uint32_t id,
                            const obs::MetricsRegistry::ScalarRef& s) {
        if (const auto it = ids_.find(id); it != ids_.end())
            return it->second;
        const std::string key = key_of(s);
        const std::uint64_t sid = keys_.size();
        keys_.emplace(key, sid);
        ids_.emplace(id, sid);
        const auto doc = report::json_parse(key);
        report::JsonWriter w(out_);
        w.begin_object();
        w.key("series").value(sid);
        for (const auto& [k, v] : doc->members)
            w.key(k).raw(report::json_serialize(v));
        w.end_object();
        out_ << '\n';
        return sid;
    }

    void sample(sim::TimePoint stamp, bool end = false) {
        if (!end && stamp.count() <= last_stamp_ns_) return;
        struct Changed {
            std::uint64_t id;
            double value;
            bool integral;
        };
        std::vector<Changed> changed;
        for (std::uint32_t id = 0; id < reg_.scalar_count(); ++id) {
            const obs::MetricsRegistry::ScalarRef s = reg_.scalar(id);
            if (id >= prev_.size()) prev_.resize(id + 1, 0.0);
            const bool integral = s.counter != nullptr;
            const double v = integral ? static_cast<double>(s.counter->value)
                                      : s.gauge->value;
            if (v != prev_[id]) {
                prev_[id] = v;
                changed.push_back({stream_id(id, s), v, integral});
            }
        }
        if (changed.empty()) return;
        last_stamp_ns_ = std::max(last_stamp_ns_, stamp.count());
        report::JsonWriter w(out_);
        if (end) {
            w.begin_object();
            w.key("end_ns").value(static_cast<std::int64_t>(stamp.count()));
            w.key("v");
        }
        w.begin_array();
        if (!end) {
            const std::int64_t tick = stamp.count() / opts_.interval.count();
            w.value(tick - last_tick_);
            last_tick_ = tick;
        }
        for (const Changed& c : changed) {
            w.value(c.id);
            if (c.integral)
                w.value(static_cast<std::uint64_t>(c.value));
            else
                w.value(c.value);
        }
        w.end_array();
        if (end) w.end_object();
        out_ << '\n';
    }

    const obs::MetricsRegistry& reg_;
    std::ostream& out_;
    obs::TimeseriesSampler::Options opts_;
    std::vector<double> prev_;
    std::map<std::uint32_t, std::uint64_t> ids_; ///< scalar -> stream id
    std::map<std::string, std::uint64_t> keys_;  ///< key -> stream id
    std::int64_t last_stamp_ns_ = -1;
    std::int64_t last_tick_ = 0;
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
    obs::MetricsRegistry reg;
    obs::TimeseriesSampler::Options opts;
    opts.interval = sim::Duration(kIntervals[pick(3)]);
    opts.device = "dev\"" + std::to_string(seed);
    opts.shard = static_cast<int>(pick(5)) - 1;
    // Declarations leave out the segment's own device label, and keep
    // any other device's.
    const std::vector<obs::Labels> label_sets = {
        {},
        {{"device", "a"}},
        {{"device", "b"}, {"k", "x=y;z"}},
        {{"q\"", "\\"}, {"device", "a"}},
        {{"device", opts.device}, {"k", "x=y;z"}},
        {{"q\"", "\\"}, {"device", opts.device}},
    };
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
            label_sets[static_cast<std::size_t>(pick(label_sets.size()))];
        switch (pick(3)) {
        case 0: counters.push_back(reg.counter(name('c'), labels)); break;
        case 1: gauges.push_back(reg.gauge(name('g'), labels)); break;
        default: hists.push_back(reg.log_histogram(name('h'), labels)); break;
        }
    };
    const auto merge_one = [&] {
        obs::MetricsRegistry other;
        for (std::int64_t i = 1 + pick(4); i > 0; --i) {
            const obs::Labels& labels = label_sets[static_cast<std::size_t>(
                pick(label_sets.size()))];
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
        if (s.push.find("\n[") != std::string::npos) ++with_samples;
    }
    // The scripts must exercise emission, not just agree on silence.
    EXPECT_GT(with_samples, 200u);
}

// ------------------------------------------------------- decoded stream

namespace {

/// FNV-1a, 64 bit.
struct Fnv {
    std::uint64_t h = 14695981039346656037ULL;
    void add(std::string_view s) {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    }
};

/// What a time-series stream says, independent of its encoding: one
/// "device shard stamp_ns name labels kind value" line per sampled
/// point, in stream order, with the labels other than `device` (the
/// segment's device column already names it) and the value token as
/// written.
std::vector<std::string> decode_points(const std::string& stream) {
    std::vector<std::string> points;
    std::istringstream in(stream);
    std::string error;
    const bool ok = obs::read_timeseries(
        in,
        [&](const obs::TimeseriesPoint& p) {
            std::string labels;
            for (const auto& [k, v] : p.labels.members)
                if (k != "device")
                    labels += (labels.empty() ? "" : ",") + k + "=" +
                              v.as_string();
            points.push_back(std::string(p.device) + ' ' +
                             std::to_string(p.shard) + ' ' +
                             std::to_string(p.stamp_ns) + ' ' +
                             std::string(p.name) + ' ' + labels + ' ' +
                             std::string(p.kind) + ' ' +
                             report::json_serialize(p.value));
        },
        &error);
    EXPECT_TRUE(ok) << error;
    return points;
}

} // namespace

TEST(Timeseries, SeriesThatDifferOnlyByTheSegmentDeviceAreRefused) {
    // {} and {device: <segment>} both declare as {} in the segment.
    obs::MetricsRegistry reg;
    obs::TimeseriesSampler::Options opts;
    opts.device = "d";
    std::ostringstream out;
    obs::TimeseriesSampler ts(reg, out, opts);
    obs::inc(reg.counter("c", {}));
    obs::inc(reg.counter("c", {{"device", "d"}}));
    EXPECT_THROW(ts.finish(sim::TimePoint{}), std::exception);
}

TEST(Timeseries, DecodedStreamIsPinned) {
    // A small population campaign as population_campaign runs it: eight
    // sampled gateways with two firewall rules each, UDP-1, UDP-4, TCP-1
    // and STUN. The digest is of the decoded points, not the bytes, so an
    // encoding change that keeps every point keeps it.
    devices::PopulationSpec spec;
    spec.count = 8;
    spec.firewall_rules = 2;
    harness::CampaignConfig cfg;
    cfg.udp1 = cfg.udp4 = cfg.tcp1 = cfg.stun = true;
    cfg.udp.repetitions = 1;
    cfg.tcp_timeout.repetitions = 1;

    std::string ref;
    for (const int workers : {1, 2, 4}) {
        const std::string path =
            "test_telemetry_pin_w" + std::to_string(workers) + ".jsonl";
        ShardScheduler::Options opts;
        opts.roster = devices::sample_roster(spec);
        opts.config = cfg;
        opts.workers = workers;
        opts.timeseries_path = path;
        ShardScheduler::run(opts);
        const std::string stream = slurp(path);
        std::remove(path.c_str());
        if (ref.empty())
            ref = stream;
        else
            EXPECT_EQ(stream, ref) << "workers=" << workers;

        const std::vector<std::string> points = decode_points(stream);
        Fnv f;
        for (const std::string& p : points) {
            f.add(p);
            f.add("\n");
        }
        // Re-pinned once, from 10130717438366840285, when the rule
        // chain's series took the dotted names and the `device` label
        // (rule_chain_default_hits -> rule_chain.default_hits,
        // rule_chain_accepted -> rule_chain.accepted,
        // rule_chain_dropped -> rule_chain.dropped,
        // rule_chain_rule_hits -> rule_chain.rule_hits, `chain` ->
        // `device`); the point count did not move. The v2 encoding
        // (ids per stream, ticks) left both unchanged.
        EXPECT_EQ(points.size(), 2711u) << "workers=" << workers;
        EXPECT_EQ(f.h, 5824560499665932909ULL) << "workers=" << workers;
    }
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
        EXPECT_NE(ts.find("\n["), std::string::npos)
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
    // The reference's points of devices 2 and 3 (shards 2 and 3), which
    // the resumed runs measure again.
    std::vector<std::string> rerun_points;
    for (const std::string& p : decode_points(slurp(ts_path))) {
        const std::size_t shard = p.find(' ') + 1;
        if (p.compare(shard, 2, "2 ") == 0 || p.compare(shard, 2, "3 ") == 0)
            rerun_points.push_back(p);
    }
    ASSERT_FALSE(rerun_points.empty());

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
        // The resumed stream covers the rerun devices only: it
        // validates and says what the reference said about them.
        EXPECT_EQ(decode_points(slurp(ts_path)), rerun_points)
            << "workers=" << workers;
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
