// Campaign telemetry: the log2-bucketed histogram sketch (merge
// algebra, bucket resolution), the streaming time-series sink, the
// harness self-profiler, and the flight-dump manifest — plus the load-
// bearing invariant behind all of them: turning telemetry on must not
// change a single campaign byte, at any worker count, including across
// a kill/resume.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "devices/profiles.hpp"
#include "harness/results_io.hpp"
#include "harness/testrund.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"

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
    std::string error;
    EXPECT_TRUE(obs::validate_timeseries_jsonl(good, &error)) << error;

    const std::string regressing =
        R"({"schema":"gatekit.timeseries.v1","interval_ms":1000,"device":"a","shard":0})"
        "\n"
        R"({"series":0,"name":"x","labels":{},"kind":"counter"})"
        "\n"
        R"({"t_ns":1000,"v":[[0,1]]})"
        "\n"
        R"({"t_ns":999,"v":[[0,2]]})"
        "\n";
    EXPECT_FALSE(obs::validate_timeseries_jsonl(regressing, &error));

    const std::string undeclared =
        R"({"schema":"gatekit.timeseries.v1","interval_ms":1000,"device":"a","shard":0})"
        "\n"
        R"({"t_ns":0,"v":[[3,1]]})"
        "\n";
    EXPECT_FALSE(obs::validate_timeseries_jsonl(undeclared, &error));

    EXPECT_FALSE(obs::validate_timeseries_jsonl("{\"t_ns\":0}\n", &error));
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
        EXPECT_TRUE(obs::validate_timeseries_jsonl(ts, &error)) << error;
        EXPECT_NE(ts.find("\"t_ns\""), std::string::npos)
            << "time-series stream carries no samples";
        // Sim-time-stamped output is itself byte-gated across workers.
        if (ts_ref.empty())
            ts_ref = ts;
        else
            EXPECT_EQ(ts, ts_ref) << "workers=" << workers;

        const std::string prof = slurp(opts.profile_path);
        EXPECT_TRUE(obs::validate_profile_jsonl(prof, &error)) << error;
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
        EXPECT_TRUE(
            obs::validate_timeseries_jsonl(slurp(ts_path), &error))
            << error;
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
