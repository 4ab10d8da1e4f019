// Device-sharded campaign scheduling (harness::ShardScheduler): the
// merged artifacts of an N-worker run — per-device results, the merged
// journal, the merged metrics snapshot, the merged trace and time
// series — must be byte-identical to the one-worker run for every N,
// and a truncated journal must resume correctly at any worker count.
// These are the invariants that make GATEKIT_WORKERS a pure wall-clock
// knob. A failed shard stops the campaign: no later device runs and no
// per-shard file is left behind.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "devices/profiles.hpp"
#include "harness/results_io.hpp"
#include "harness/testrund.hpp"

using namespace gatekit;
using harness::ShardScheduler;

namespace {

// Seven devices: enough for a 2- and 7-way split to differ, small
// enough that repeated full campaigns stay fast. 34 workers over-
// provisions the roster and must clamp harmlessly.
std::vector<gateway::DeviceProfile> roster7() {
    const auto& all = devices::all_profiles();
    return {all.begin(), all.begin() + 7};
}

harness::CampaignConfig quick_campaign() {
    harness::CampaignConfig cfg;
    cfg.udp4 = cfg.icmp = cfg.dns = true;
    return cfg;
}

std::string results_json(const std::vector<harness::DeviceResults>& rs) {
    std::string out;
    for (const auto& r : rs) out += harness::device_results_json(r) + "\n";
    return out;
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

struct Artifacts {
    std::string results;
    std::string journal;
    std::string metrics;
    std::string trace;      ///< merged trace JSONL
    std::string timeseries; ///< merged time-series JSONL
};

// Removes a run's trace and time-series sidecars, the flight manifest and
// every flight dump the manifest lists.
void remove_sidecars(const std::string& trace_path,
                     const std::string& timeseries_path) {
    const std::string manifest = trace_path + ".flight.manifest";
    std::istringstream dumps(slurp(manifest));
    for (std::string dump; std::getline(dumps, dump);)
        std::remove(dump.c_str());
    std::remove(manifest.c_str());
    std::remove(trace_path.c_str());
    std::remove(timeseries_path.c_str());
}

Artifacts run_sharded(int workers, const std::string& journal_path,
                      bool resume = false) {
    ShardScheduler::Options opts;
    opts.roster = roster7();
    opts.config = quick_campaign();
    opts.workers = workers;
    opts.journal_path = journal_path;
    opts.resume = resume;
    opts.metrics = true;
    opts.trace_path = journal_path + ".trace";
    opts.timeseries_path = journal_path + ".ts";
    auto out = ShardScheduler::run(opts);
    Artifacts a;
    a.results = results_json(out.results);
    a.journal = slurp(journal_path);
    a.metrics = out.metrics != nullptr ? out.metrics->to_csv() : "";
    a.trace = slurp(opts.trace_path);
    a.timeseries = slurp(opts.timeseries_path);
    remove_sidecars(opts.trace_path, opts.timeseries_path);
    return a;
}

} // namespace

TEST(Shard, MergedOutputMatchesSequentialAtAnyWorkerCount) {
    const std::string ref_path = "test_shard_seq.jsonl";
    std::remove(ref_path.c_str());
    const Artifacts ref = run_sharded(1, ref_path);
    ASSERT_FALSE(ref.results.empty());
    ASSERT_FALSE(ref.journal.empty());
    ASSERT_FALSE(ref.metrics.empty());
    ASSERT_FALSE(ref.trace.empty());
    ASSERT_FALSE(ref.timeseries.empty());

    for (const int workers : {2, 7, 34}) {
        const std::string path =
            "test_shard_w" + std::to_string(workers) + ".jsonl";
        std::remove(path.c_str());
        const Artifacts got = run_sharded(workers, path);
        EXPECT_EQ(got.results, ref.results) << "workers=" << workers;
        EXPECT_EQ(got.journal, ref.journal) << "workers=" << workers;
        EXPECT_EQ(got.metrics, ref.metrics) << "workers=" << workers;
        EXPECT_EQ(got.trace, ref.trace) << "workers=" << workers;
        EXPECT_EQ(got.timeseries, ref.timeseries) << "workers=" << workers;
        std::remove(path.c_str());
    }
    std::remove(ref_path.c_str());
}

TEST(Shard, ResumesFromTruncatedMergedJournalAtAnyWorkerCount) {
    const std::string ref_path = "test_shard_resume_ref.jsonl";
    std::remove(ref_path.c_str());
    const Artifacts ref = run_sharded(1, ref_path);

    std::vector<std::string> lines;
    {
        std::istringstream in(ref.journal);
        for (std::string l; std::getline(in, l);)
            if (!l.empty()) lines.push_back(l);
    }
    ASSERT_EQ(lines.size(), 8u); // header + 7 devices

    for (const int workers : {1, 2, 7, 34}) {
        const std::string path =
            "test_shard_resume_w" + std::to_string(workers) + ".jsonl";
        // Keep the header plus the first three records: devices 0-2
        // finished, later devices rerun.
        std::string prefix;
        for (std::size_t i = 0; i < 4; ++i) prefix += lines[i] + "\n";
        spit(path, prefix);
        const Artifacts got = run_sharded(workers, path, /*resume=*/true);
        EXPECT_EQ(got.results, ref.results) << "workers=" << workers;
        EXPECT_EQ(got.journal, ref.journal) << "workers=" << workers;
        // (No metrics comparison: metrics record live work only, and a
        // resumed run legitimately performs less of it.)
        std::remove(path.c_str());
    }
    std::remove(ref_path.c_str());
}

TEST(Shard, SeedDerivationIsStableAndCollisionFree) {
    // The derived impairment seeds are journaled as plain integers, so
    // the derivation must be deterministic, 62-bit (exact in JSON), and
    // distinct across every (device, link, direction) a roster can hold.
    std::set<std::uint64_t> seen;
    const std::uint64_t campaign_seed = 0x6761'7465'6b69'7421ULL;
    for (int dev = 0; dev < 34; ++dev)
        for (const bool wan : {false, true})
            for (int dir = 0; dir < 2; ++dir) {
                const auto s =
                    harness::impair_seed_for(campaign_seed, dev, wan, dir);
                EXPECT_EQ(s, harness::impair_seed_for(campaign_seed, dev,
                                                      wan, dir));
                EXPECT_LT(s, 1ULL << 62);
                EXPECT_TRUE(seen.insert(s).second)
                    << "seed collision at device " << dev;
            }
    // A different campaign seed reseeds every stream.
    EXPECT_NE(harness::impair_seed_for(campaign_seed, 0, true, 0),
              harness::impair_seed_for(campaign_seed + 1, 0, true, 0));
}

TEST(Shard, WorkerCountIsClampedNotRejected) {
    // 34 workers over a 7-device roster must behave exactly like 7.
    const std::string a = "test_shard_clamp_a.jsonl";
    const std::string b = "test_shard_clamp_b.jsonl";
    std::remove(a.c_str());
    std::remove(b.c_str());
    const Artifacts at7 = run_sharded(7, a);
    const Artifacts at34 = run_sharded(34, b);
    EXPECT_EQ(at34.results, at7.results);
    EXPECT_EQ(at34.journal, at7.journal);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(Shard, FailedShardStopsTheCampaign) {
    // Device 1's profile fails DeviceProfile::validate, so its shard
    // throws at bring-up. The frontier never passes a failed shard, so a
    // later device could only wait in memory until run() throws: none
    // may start.
    const auto& all = devices::all_profiles();
    ShardScheduler::Options opts;
    opts.roster = {all.begin(), all.begin() + 6};
    opts.roster[1].udp.initial = sim::Duration::zero();
    opts.config = quick_campaign();
    opts.workers = 1;
    opts.verbose = true;
    opts.trace_path = "test_shard_fail.trace";
    opts.timeseries_path = "test_shard_fail.ts";
    int handed_out = 0;
    opts.on_result = [&](int, harness::DeviceResults&&) { ++handed_out; };

    testing::internal::CaptureStderr();
    EXPECT_THROW(ShardScheduler::run(opts), std::invalid_argument);
    const std::string log = testing::internal::GetCapturedStderr();

    EXPECT_EQ(handed_out, 1);
    int done_lines = 0;
    for (std::size_t at = 0; (at = log.find(") done\n", at)) !=
                             std::string::npos;
         ++at)
        ++done_lines;
    EXPECT_EQ(done_lines, 1) << log;
    for (const auto& entry : std::filesystem::directory_iterator(".")) {
        const std::string name = entry.path().filename().string();
        EXPECT_FALSE(name.rfind("test_shard_fail", 0) == 0 &&
                     name.find(".shard") != std::string::npos)
            << "left behind: " << name;
    }
    remove_sidecars(opts.trace_path, opts.timeseries_path);
}
