// The generative gateway population (devices::sample_gateway /
// sample_roster): sampling must be a pure function of (seed, index) —
// identical at any worker count, in any order, across kill/resume — and
// every sampled marginal must stay inside the envelope of the 34
// calibrated profiles. DeviceProfile::validate() is the sampler's
// rejection predicate and Testbed::add_device's admission gate, so each
// invariant gets a failing-before case here. A 10k-device campaign's
// memory is bounded by the scheduler's pending map (workers*4 + 16
// finished shards) and gated by population_campaign's 256 MB RSS limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "devices/population.hpp"
#include "devices/profiles.hpp"
#include "harness/results_io.hpp"
#include "harness/testbed.hpp"
#include "harness/testrund.hpp"

using namespace gatekit;
using gateway::DeviceProfile;
using harness::ShardScheduler;

namespace {

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

/// A sampled roster small enough for repeated campaigns in a unit test.
std::vector<DeviceProfile> sampled_roster(int count) {
    devices::PopulationSpec spec;
    spec.count = count;
    return devices::sample_roster(spec);
}

harness::CampaignConfig quick_campaign() {
    harness::CampaignConfig cfg;
    cfg.udp4 = cfg.icmp = cfg.dns = true;
    return cfg;
}

struct Artifacts {
    std::string results;
    std::string journal;
};

Artifacts run_sampled(const std::vector<DeviceProfile>& roster,
                      int workers, const std::string& journal_path,
                      bool resume = false) {
    ShardScheduler::Options opts;
    opts.roster = roster;
    opts.config = quick_campaign();
    opts.workers = workers;
    opts.journal_path = journal_path;
    opts.resume = resume;
    auto out = ShardScheduler::run(opts);
    return {results_json(out.results), slurp(journal_path)};
}

/// A profile every validate() case starts from (the first calibrated
/// device, known-good).
DeviceProfile valid_profile() { return devices::all_profiles().front(); }

} // namespace

// --- Sampling determinism ---------------------------------------------------

TEST(Population, SameSeedSameCountSameRoster) {
    devices::PopulationSpec spec;
    spec.count = 64;
    const auto a = devices::sample_roster(spec);
    const auto b = devices::sample_roster(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(gateway::profile_identity(a[i]),
                  gateway::profile_identity(b[i]))
            << "gateway " << i;

    // A different seed is a different population.
    devices::PopulationSpec other = spec;
    other.seed ^= 1;
    const auto c = devices::sample_roster(other);
    int differing = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        differing += gateway::profile_identity(a[i]) !=
                     gateway::profile_identity(c[i]);
    EXPECT_GT(differing, 32);
}

TEST(Population, GatewayIsPureFunctionOfSeedAndIndex) {
    // Per-gateway streams are independent: sampling index 37 alone must
    // yield the identical device as sampling it inside a roster, so a
    // shard can materialize its own device without the rest.
    const auto roster = sampled_roster(48);
    for (const int i : {0, 1, 17, 37, 47})
        EXPECT_EQ(gateway::profile_identity(
                      devices::sample_gateway(devices::kPopulationSeed, i)),
                  gateway::profile_identity(roster[static_cast<size_t>(i)]))
            << "gateway " << i;

    // Stream seeds must not collide across a 10k roster.
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i)
        EXPECT_TRUE(seen
                        .insert(devices::gateway_stream_seed(
                            devices::kPopulationSeed, i))
                        .second)
            << "stream-seed collision at index " << i;
}

TEST(Population, MarginalsStayInsideCalibratedEnvelope) {
    const auto& all = devices::all_profiles();
    const auto env = [&](auto get) {
        auto lo = get(all.front()), hi = lo;
        for (const auto& p : all) {
            lo = std::min(lo, get(p));
            hi = std::max(hi, get(p));
        }
        return std::pair(lo, hi);
    };
    const auto secs = [](sim::Duration d) {
        return std::chrono::duration_cast<std::chrono::seconds>(d).count();
    };

    const auto [u1_lo, u1_hi] =
        env([&](const DeviceProfile& p) { return secs(p.udp.initial); });
    const auto [t1_lo, t1_hi] = env([&](const DeviceProfile& p) {
        return secs(p.tcp_established_timeout);
    });
    const auto [bind_lo, bind_hi] =
        env([](const DeviceProfile& p) { return p.max_tcp_bindings; });
    const auto [rate_lo, rate_hi] = env([](const DeviceProfile& p) {
        return std::min(p.fwd.up_mbps, p.fwd.down_mbps);
    });
    const auto [rate_lo2, rate_hi2] = env([](const DeviceProfile& p) {
        return std::max(p.fwd.up_mbps, p.fwd.down_mbps);
    });
    std::set<std::int64_t> granularities;
    for (const auto& p : all) granularities.insert(secs(p.udp.granularity));

    for (const auto& p : sampled_roster(256)) {
        EXPECT_EQ(p.validate(), "") << p.tag;
        EXPECT_GE(secs(p.udp.initial), u1_lo) << p.tag;
        EXPECT_LE(secs(p.udp.initial), u1_hi) << p.tag;
        // Calibrated ordering: outbound refresh never below inbound.
        EXPECT_GE(secs(p.udp.outbound_refresh),
                  secs(p.udp.inbound_refresh))
            << p.tag;
        EXPECT_GE(secs(p.tcp_established_timeout), t1_lo) << p.tag;
        EXPECT_LE(secs(p.tcp_established_timeout), t1_hi) << p.tag;
        EXPECT_GE(p.max_tcp_bindings, bind_lo) << p.tag;
        EXPECT_LE(p.max_tcp_bindings, bind_hi) << p.tag;
        // Granularity is donor-swapped, never invented.
        EXPECT_TRUE(granularities.count(secs(p.udp.granularity))) << p.tag;
        // Port pools live in the calibrated decade, endpoints ordered.
        EXPECT_GE(p.pool_begin, 20000) << p.tag;
        EXPECT_LE(p.pool_end, 29999) << p.tag;
        EXPECT_LE(p.pool_begin, p.pool_end) << p.tag;
        // Forwarding rates inside the calibrated band, invariants kept.
        EXPECT_GE(p.fwd.up_mbps, std::min(rate_lo, rate_lo2)) << p.tag;
        EXPECT_LE(p.fwd.down_mbps, std::max(rate_hi, rate_hi2)) << p.tag;
        EXPECT_LE(p.fwd.up_mbps, p.fwd.down_mbps) << p.tag;
        EXPECT_LE(p.fwd.aggregate_mbps, p.fwd.down_mbps + p.fwd.up_mbps)
            << p.tag;
        EXPECT_EQ(p.fwd.buffer_down_bytes, p.fwd.buffer_up_bytes) << p.tag;
    }
}

// --- DeviceProfile::validate() ---------------------------------------------

TEST(ProfileValidate, AcceptsEveryCalibratedProfile) {
    for (const auto& p : devices::all_profiles())
        EXPECT_EQ(p.validate(), "") << p.tag;
}

TEST(ProfileValidate, RejectsInvertedPortPool) {
    DeviceProfile p = valid_profile();
    p.pool_begin = 29999;
    p.pool_end = 20000;
    EXPECT_NE(p.validate(), "");
    p.pool_begin = 0;
    EXPECT_NE(p.validate(), "");
}

TEST(ProfileValidate, RejectsZeroRateForwardingModel) {
    for (auto knob : {&gateway::ForwardingModel::down_mbps,
                      &gateway::ForwardingModel::up_mbps,
                      &gateway::ForwardingModel::aggregate_mbps}) {
        DeviceProfile p = valid_profile();
        p.fwd.*knob = 0.0;
        EXPECT_NE(p.validate(), "");
    }
    DeviceProfile p = valid_profile();
    p.fwd.buffer_down_bytes = 0;
    EXPECT_NE(p.validate(), "");
}

TEST(ProfileValidate, RejectsNonPositiveTimeouts) {
    using std::chrono::seconds;
    {
        DeviceProfile p = valid_profile();
        p.udp.initial = seconds(0);
        EXPECT_NE(p.validate(), "");
    }
    {
        DeviceProfile p = valid_profile();
        p.tcp_established_timeout = seconds(-30);
        EXPECT_NE(p.validate(), "");
    }
    {
        DeviceProfile p = valid_profile();
        p.udp.granularity = seconds(-1);
        EXPECT_NE(p.validate(), "");
    }
}

TEST(ProfileValidate, NegativeCapsOnlyAllowTheFollowSentinel) {
    DeviceProfile p = valid_profile();
    p.max_udp_bindings = -1; // documented "follow the flow" sentinel
    EXPECT_EQ(p.validate(), "");
    p.max_udp_bindings = -2;
    EXPECT_NE(p.validate(), "");
    p.max_udp_bindings = 0;
    EXPECT_NE(p.validate(), "");
    DeviceProfile q = valid_profile();
    q.max_tcp_bindings = 0;
    EXPECT_NE(q.validate(), "");
}

TEST(ProfileValidate, TestbedRejectsInvalidProfilesAtAddDevice) {
    sim::EventLoop loop;
    harness::Testbed tb(loop);
    DeviceProfile bad = valid_profile();
    bad.pool_begin = 25000;
    bad.pool_end = 20000;
    EXPECT_THROW(tb.add_device(bad), std::invalid_argument);
    // The same gate guards the explicit-number overload shards use.
    EXPECT_THROW(tb.add_device(bad, 5), std::invalid_argument);
    EXPECT_NO_THROW(tb.add_device(valid_profile()));
}

// --- Sampled campaigns ------------------------------------------------------

TEST(Population, CampaignIsByteIdenticalAtAnyWorkerCount) {
    const auto roster = sampled_roster(9);
    const std::string ref_path = "test_pop_w1.jsonl";
    std::remove(ref_path.c_str());
    const Artifacts ref = run_sampled(roster, 1, ref_path);
    ASSERT_FALSE(ref.results.empty());
    ASSERT_FALSE(ref.journal.empty());
    std::remove(ref_path.c_str());

    for (const int workers : {2, 8}) {
        const std::string path =
            "test_pop_w" + std::to_string(workers) + ".jsonl";
        std::remove(path.c_str());
        const Artifacts got = run_sampled(roster, workers, path);
        EXPECT_EQ(got.results, ref.results) << "workers=" << workers;
        EXPECT_EQ(got.journal, ref.journal) << "workers=" << workers;
        std::remove(path.c_str());
    }
}

TEST(Population, CampaignResumesOnSampledRoster) {
    // Kill/resume on a sampled roster: the journal fingerprint now
    // hashes full profile identities, so a resumed campaign must both
    // accept its own journal and reproduce the uninterrupted bytes.
    const auto roster = sampled_roster(5);
    const std::string ref_path = "test_pop_resume_ref.jsonl";
    std::remove(ref_path.c_str());
    const Artifacts ref = run_sampled(roster, 2, ref_path);
    std::remove(ref_path.c_str());

    std::vector<std::string> lines;
    {
        std::istringstream in(ref.journal);
        for (std::string l; std::getline(in, l);)
            if (!l.empty()) lines.push_back(l);
    }
    ASSERT_GT(lines.size(), 4u);

    const std::string path = "test_pop_resume.jsonl";
    std::string prefix;
    for (std::size_t i = 0; i < 4; ++i) prefix += lines[i] + "\n";
    spit(path, prefix);
    const Artifacts got = run_sampled(roster, 2, path, /*resume=*/true);
    EXPECT_EQ(got.results, ref.results);
    EXPECT_EQ(got.journal, ref.journal);
    std::remove(path.c_str());
}

TEST(Population, ResumeRejectsForeignSampledJournal) {
    // Same tags, different seed => different identities => different
    // fingerprint. The pre-identity fingerprint (tags only) could not
    // tell these apart.
    const auto roster_a = sampled_roster(3);
    devices::PopulationSpec other;
    other.seed ^= 0xdead;
    other.count = 3;
    const auto roster_b = devices::sample_roster(other);
    ASSERT_EQ(roster_a[0].tag, roster_b[0].tag);

    const std::string path = "test_pop_foreign.jsonl";
    std::remove(path.c_str());
    (void)run_sampled(roster_a, 1, path);
    ShardScheduler::Options opts;
    opts.roster = roster_b;
    opts.config = quick_campaign();
    opts.workers = 1;
    opts.journal_path = path;
    opts.resume = true;
    EXPECT_THROW(ShardScheduler::run(opts), std::runtime_error);
    std::remove(path.c_str());
}
