// Campaign supervisor: unit classification, deadline budgets, quarantine,
// the write-ahead journal, and the kill/resume determinism guarantee.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "devices/profiles.hpp"
#include "harness/results_io.hpp"
#include "harness/testbed.hpp"
#include "harness/testrund.hpp"
#include "report/journal.hpp"

using namespace gatekit;
using namespace gatekit::harness;

namespace {

// ctest runs each discovered test as its own process, in parallel, in a
// shared working directory — every test that touches a journal file must
// use its own filename or concurrent runs race on truncate/append/load.
std::string journal_path_for(const char* test) {
    return std::string("test_supervisor_journal_") + test + ".jsonl";
}

// A deliberately small roster exercising both port-allocation families
// and a coarse binding-time granularity: ap is sequential-allocation,
// al quantizes timeouts to 40 s, be1 preserves source ports.
std::vector<gateway::DeviceProfile> roster3() {
    return {*devices::find_profile("al"), *devices::find_profile("ap"),
            *devices::find_profile("be1")};
}

// The quick single-shot probes, so a multi-run test stays cheap.
CampaignConfig quick_campaign() {
    CampaignConfig cfg;
    cfg.icmp = cfg.transports = cfg.dns = true;
    return cfg;
}

// Every multi-device campaign runs through the shard scheduler; the
// journal knobs in cfg.supervisor become its merged-journal options.
std::vector<DeviceResults> run_roster(const CampaignConfig& cfg,
                                      std::vector<gateway::DeviceProfile> ps) {
    ShardScheduler::Options opts;
    opts.roster = std::move(ps);
    opts.config = cfg;
    opts.journal_path = cfg.supervisor.journal_path;
    opts.resume = cfg.supervisor.resume;
    return ShardScheduler::run(opts).results;
}

// Remove a merged journal and the shard segments a refused resume
// leaves behind.
void remove_journal(const std::string& path) {
    std::remove(path.c_str());
    for (int k = 0; k < 3; ++k)
        std::remove(ShardScheduler::segment_path(path, k).c_str());
}

std::string results_json(const std::vector<DeviceResults>& rs) {
    std::string out;
    for (const auto& r : rs) out += device_results_json(r) + "\n";
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

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty()) out.push_back(line);
    return out;
}

} // namespace

TEST(UnitStatus, StringRoundTrip) {
    for (auto s : {UnitStatus::Ok, UnitStatus::Degraded, UnitStatus::GaveUp,
                   UnitStatus::Quarantined}) {
        UnitStatus back;
        ASSERT_TRUE(unit_status_from_string(to_string(s), back));
        EXPECT_EQ(back, s);
    }
    UnitStatus back;
    EXPECT_FALSE(unit_status_from_string("bogus", back));
    EXPECT_FALSE(unit_status_from_string("", back));
}

TEST(UnitPlan, FollowsExecutionOrder) {
    auto cfg = CampaignConfig::everything();
    const auto plan = unit_plan(cfg);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.front(), "udp1");
    EXPECT_EQ(plan.back(), "binding_rate");
    // One udp5 unit per configured service, in declaration order.
    int udp5 = 0;
    for (const auto& u : plan)
        if (u.rfind("udp5:", 0) == 0) ++udp5;
    EXPECT_EQ(udp5, static_cast<int>(cfg.udp5_services.size()));

    CampaignConfig none;
    EXPECT_TRUE(unit_plan(none).empty());
}

TEST(UnitPayload, RoundTripsByteIdentically) {
    DeviceResults r;
    r.tag = "xx";
    r.udp1.samples_sec = {30.0, 30.5, 31.25};
    r.udp1.search_retries = 2;
    r.icmp.query_error_forwarded = true;
    r.dns.udp_ok = true;
    r.transports.sctp_connects = true;
    r.transports.sctp_action = NatAction::IpOnly;
    for (const std::string unit : {"udp1", "icmp", "dns", "transports"}) {
        const std::string json = unit_payload_json(r, unit);
        std::string err;
        const auto v = report::json_parse(json, &err);
        ASSERT_TRUE(v.has_value()) << unit << ": " << err;
        DeviceResults fresh;
        ASSERT_TRUE(apply_unit_payload(fresh, unit, *v));
        EXPECT_EQ(unit_payload_json(fresh, unit), json) << unit;
    }
}

TEST(UnitPayload, UnknownUnitIsNull) {
    DeviceResults r;
    EXPECT_EQ(unit_payload_json(r, "nope"), "null");
    report::JsonValue v;
    EXPECT_FALSE(apply_unit_payload(r, "nope", v));
}

TEST(Fingerprint, SensitiveToKnobsAndRoster) {
    const auto cfg = quick_campaign();
    const std::vector<std::string> devs{"al#1", "ap#2"};
    const auto base = campaign_fingerprint(cfg, devs);
    auto other = cfg;
    other.dns = false;
    EXPECT_NE(campaign_fingerprint(other, devs), base);
    EXPECT_NE(campaign_fingerprint(cfg, {"al#1"}), base);
    // Journal knobs must NOT shape the fingerprint: a resumed campaign
    // (resume=true) must match the journal its original run wrote.
    auto resumed = cfg;
    resumed.supervisor.journal_path = "somewhere.jsonl";
    resumed.supervisor.resume = true;
    EXPECT_EQ(campaign_fingerprint(resumed, devs), base);
}

TEST(JournalValidator, AcceptsWhatTheWriterProduces) {
    const std::string path = journal_path_for("writer");
    std::remove(path.c_str());
    auto cfg = quick_campaign();
    cfg.supervisor.journal_path = path;
    run_roster(cfg, roster3());
    const auto text = slurp(path);
    std::string err;
    EXPECT_TRUE(report::validate_journal(text, &err)) << err;
    // 1 header + 3 units x 3 devices.
    EXPECT_EQ(lines_of(text).size(), 10u);
    std::remove(path.c_str());
}

TEST(JournalValidator, RejectsCorruption) {
    std::string err;
    EXPECT_FALSE(report::validate_journal("", &err));
    EXPECT_FALSE(report::validate_journal("{\"schema\":\"bogus\"}\n", &err));
    EXPECT_FALSE(report::validate_journal("not json at all\n", &err));
}

TEST(Supervisor, DefaultOffStillClassifiesEveryUnit) {
    const auto rs = run_roster(quick_campaign(), {*devices::find_profile("be1")});
    ASSERT_EQ(rs.size(), 1u);
    ASSERT_EQ(rs[0].units.size(), 3u);
    for (const auto& u : rs[0].units) {
        EXPECT_EQ(u.status, UnitStatus::Ok);
        EXPECT_EQ(u.attempts, 1);
        EXPECT_TRUE(u.reason.empty());
        EXPECT_GE(u.t_end_ns, u.t_start_ns);
    }
    EXPECT_FALSE(rs[0].quarantined());
}

TEST(Supervisor, SoftDeadlineRetriesThenSucceeds) {
    // 10 minutes can never fit a UDP-1 timeout search, so attempt 1 is
    // cancelled; attempt 2 (the last allowed) runs without a watchdog
    // and completes.
    CampaignConfig cfg;
    cfg.udp1 = true;
    cfg.udp.repetitions = 2;
    cfg.supervisor.soft_deadline = std::chrono::minutes(10);
    cfg.supervisor.max_attempts = 2;
    const auto rs = run_roster(cfg, {*devices::find_profile("be1")});
    ASSERT_EQ(rs.size(), 1u);
    ASSERT_EQ(rs[0].units.size(), 1u);
    EXPECT_EQ(rs[0].units[0].status, UnitStatus::Ok);
    EXPECT_EQ(rs[0].units[0].attempts, 2);
    EXPECT_FALSE(rs[0].udp1.samples_sec.empty());
}

TEST(Supervisor, HardDeadlineDegradesThenQuarantines) {
    // Three consecutive impossible units: the first two are cut off at
    // the hard deadline, which trips quarantine_after=2, so the third is
    // skipped and the campaign still terminates.
    CampaignConfig cfg;
    cfg.udp1 = cfg.udp2 = cfg.udp3 = true;
    cfg.udp.repetitions = 2;
    cfg.supervisor.hard_deadline = std::chrono::minutes(2);
    cfg.supervisor.hard_grace = std::chrono::seconds(30);
    cfg.supervisor.max_attempts = 1;
    cfg.supervisor.quarantine_after = 2;
    const auto rs = run_roster(cfg, {*devices::find_profile("be1")});
    ASSERT_EQ(rs.size(), 1u);
    ASSERT_EQ(rs[0].units.size(), 3u);
    for (int i = 0; i < 2; ++i) {
        const auto& u = rs[0].units[i];
        EXPECT_TRUE(u.status == UnitStatus::Degraded ||
                    u.status == UnitStatus::GaveUp)
            << to_string(u.status);
        EXPECT_EQ(u.reason, "hard_deadline");
        // The budget is enforced: unit wall time <= deadline + grace.
        EXPECT_LE(u.t_end_ns - u.t_start_ns,
                  std::chrono::nanoseconds(std::chrono::minutes(2) +
                                           std::chrono::seconds(31))
                      .count());
    }
    EXPECT_EQ(rs[0].units[2].status, UnitStatus::Quarantined);
    EXPECT_EQ(rs[0].units[2].reason, "device_quarantined");
    EXPECT_TRUE(rs[0].quarantined());
}

TEST(Supervisor, KillAndResumeIsByteIdentical) {
    const std::string path = journal_path_for("kill_resume");
    std::remove(path.c_str());
    auto cfg = quick_campaign();
    cfg.supervisor.journal_path = path;
    const auto baseline = run_roster(cfg, roster3());
    const std::string baseline_json = results_json(baseline);
    const std::string journal_text = slurp(path);

    auto rcfg = cfg;
    rcfg.supervisor.resume = true;
    const auto all = lines_of(journal_text);
    // Kill mid-device (after al's first unit), at a device boundary
    // (after al completes), and after the final unit.
    for (const std::size_t k : {2ul, 4ul, all.size()}) {
        std::string prefix;
        for (std::size_t i = 0; i < k; ++i) prefix += all[i] + "\n";
        spit(path, prefix);
        const auto resumed = run_roster(rcfg, roster3());
        EXPECT_EQ(results_json(resumed), baseline_json)
            << "diverged resuming after journal line " << k;
        EXPECT_EQ(slurp(path), journal_text)
            << "journal did not regrow byte-identically from line " << k;
    }
    std::remove(path.c_str());
}

TEST(Supervisor, IcmpQuerySideTablesSurviveResumeBoundary) {
    // The ICMP units exercise the gateway's ICMP-query and IP-only side
    // tables (identifier bindings, embedded-packet rewrites). Resuming a
    // campaign exactly at the boundary *before* each device's icmp unit
    // must leave those allocations on the same trajectory as the
    // uninterrupted run — any divergent side-table state shows up as a
    // byte difference in the icmp payload or the regrown journal.
    const std::string path = journal_path_for("icmp_boundary");
    std::remove(path.c_str());
    CampaignConfig cfg;
    cfg.udp4 = cfg.icmp = true; // plan per device: [udp4, icmp]
    cfg.supervisor.journal_path = path;
    const auto baseline = run_roster(cfg, roster3());
    const std::string baseline_json = results_json(baseline);
    const std::string journal_text = slurp(path);

    // The unit must be live (not trivially replayed) and nontrivial:
    // every device's ICMP battery saw at least one forwarded error.
    for (const auto& r : baseline) {
        int fwd = 0;
        for (const auto& e : r.icmp.udp) fwd += e.forwarded ? 1 : 0;
        EXPECT_GT(fwd, 0) << r.tag;
    }

    auto rcfg = cfg;
    rcfg.supervisor.resume = true;
    const auto all = lines_of(journal_text);
    ASSERT_EQ(all.size(), 1 + 2 * 3u); // header + 2 units x 3 devices
    for (std::size_t d = 0; d < 3; ++d) {
        const std::size_t k = 2 * d + 2; // last record: device d's udp4
        std::string prefix;
        for (std::size_t i = 0; i < k; ++i) prefix += all[i] + "\n";
        spit(path, prefix);
        const auto resumed = run_roster(rcfg, roster3());
        EXPECT_EQ(results_json(resumed), baseline_json)
            << "icmp diverged resuming into device " << d;
        EXPECT_EQ(slurp(path), journal_text)
            << "journal did not regrow byte-identically for device " << d;
    }
    std::remove(path.c_str());
}

TEST(Supervisor, ResumeRejectsFingerprintMismatch) {
    const std::string path = journal_path_for("fingerprint");
    std::remove(path.c_str());
    auto cfg = quick_campaign();
    cfg.supervisor.journal_path = path;
    run_roster(cfg, roster3());

    auto other = cfg;
    other.supervisor.resume = true;
    other.dns = false; // different plan -> different fingerprint
    EXPECT_THROW(run_roster(other, roster3()), std::runtime_error);
    remove_journal(path);
}

TEST(Supervisor, ResumeRejectsRosterMismatch) {
    const std::string path = journal_path_for("roster");
    std::remove(path.c_str());
    auto cfg = quick_campaign();
    cfg.supervisor.journal_path = path;
    run_roster(cfg, roster3());

    auto rcfg = cfg;
    rcfg.supervisor.resume = true;
    EXPECT_THROW(run_roster(rcfg, {*devices::find_profile("al")}),
                 std::runtime_error);
    remove_journal(path);
}

TEST(Supervisor, TestrundRefusesAMultiDeviceTestbed) {
    // Testrund measures one device; a roster runs through ShardScheduler.
    sim::EventLoop loop;
    Testbed tb(loop);
    tb.add_device(*devices::find_profile("al"));
    tb.add_device(*devices::find_profile("be1"));
    Testrund rund(tb);
    EXPECT_THROW(rund.run_blocking(quick_campaign()), std::invalid_argument);
}

TEST(Supervisor, TestrundRefusesAShardRangeBeyondSlotZero) {
    sim::EventLoop loop;
    Testbed tb(loop);
    tb.add_device(*devices::find_profile("be1"));
    Testrund rund(tb);
    auto cfg = quick_campaign();
    cfg.shard.first_device = 1;
    EXPECT_THROW(rund.run_blocking(cfg), std::invalid_argument);
    cfg.shard.first_device = 0;
    cfg.shard.last_device = 1;
    EXPECT_THROW(rund.run_blocking(cfg), std::invalid_argument);
}
