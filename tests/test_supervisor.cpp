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

namespace {

// A record with every field away from its default: both ICMP verdict
// arrays, all four transfers, every udp5 service of everything(), every
// enum, and supervisor reports of every status.
DeviceResults every_field_set() {
    DeviceResults r;
    r.tag = "xx";
    const auto timeout = [](double base, int k) {
        UdpTimeoutResult t;
        t.samples_sec = {base, base + 0.5, base * 3.25};
        t.creation_retries = k;
        t.probe_retries = k + 1;
        t.search_retries = k + 2;
        t.search_giveups = k + 3;
        return t;
    };
    r.udp1 = timeout(30.0, 1);
    r.udp2 = timeout(0.1, 5);
    r.udp3 = timeout(181.0, 9);
    r.udp4.preserves_source_port = true;
    r.udp4.reuses_expired_binding = true;
    r.udp4.observed_ports = {1024, 40001, 65535};
    int k = 13;
    for (const auto& [svc, port] : CampaignConfig::everything().udp5_services)
        r.udp5[svc] = timeout(port / 7.0, k += 4);
    r.tcp1.samples_sec = {7440.0, 86400.0, 1e-7};
    r.tcp1.exceeded_limit = true;
    r.tcp1.connect_retries = 2;
    r.tcp1.search_retries = 3;
    r.tcp1.search_giveups = 4;
    const auto transfer = [](double mbps, std::uint64_t bytes) {
        TransferResult t;
        t.mbps = mbps;
        t.delay_ms = mbps / 7.0;
        t.bytes = bytes;
        t.duration_sec = 12.625;
        t.completed = true;
        return t;
    };
    r.tcp2.upload = transfer(94.5, 100'000'000);
    r.tcp2.download = transfer(3.3, 1);
    r.tcp2.upload_bidir = transfer(0.001, 5'000'000'000ULL);
    r.tcp2.download_bidir = transfer(123456.789, 42);
    r.tcp4.max_bindings = 1023;
    r.tcp4.hit_probe_limit = true;
    for (std::size_t i = 0; i < r.icmp.udp.size(); ++i) {
        r.icmp.udp[i] = {i % 2 == 0, i % 3 == 0, i % 4 != 0, i % 5 != 0};
        r.icmp.tcp[i] = {i % 2 != 0, i % 3 != 0, i % 4 == 0, i % 5 == 0};
    }
    r.icmp.query_error_forwarded = true;
    r.icmp.flow_retries = 6;
    r.transports.sctp_connects = true;
    r.transports.sctp_data_ok = true;
    r.transports.dccp_connects = true;
    r.transports.sctp_action = NatAction::IpOnly;
    r.transports.dccp_action = NatAction::Untranslated;
    r.dns.udp_ok = r.dns.tcp_connects = r.dns.tcp_answers = true;
    r.dns.tcp_upstream_udp = r.dns.big_udp_ok = r.dns.truncated_seen = true;
    r.dns.dnssec_ready = true;
    r.dns.big_udp_retries = 8;
    r.quirks.decrements_ttl = true;
    r.quirks.honors_record_route = true;
    r.quirks.hairpins_udp = true;
    r.stun.success = r.stun.reflexive_correct = r.stun.port_preserved = true;
    r.stun.mapping = stun::Mapping::AddressDependent;
    r.binding_rate.attempted = 200;
    r.binding_rate.established = 128;
    r.binding_rate.bindings_per_sec = 2.5e3;
    r.units = {{"udp1", UnitStatus::Ok, 1, "", 10, 20},
               {"udp2", UnitStatus::Degraded, 2, "hard_deadline", 30, 40},
               {"udp3", UnitStatus::GaveUp, 3, "hard_deadline;attack=x", 50,
                60},
               {"udp4", UnitStatus::Quarantined, 0, "device_quarantined",
                70, 70}};
    return r;
}

// device_results_json of every_field_set(), pinned byte for byte.
const char* const kEveryFieldJson =
    R"({"tag":"xx","udp1":{"samples_sec":[30.0,30.5,97.5],"creation_retri)"
    R"(es":1,"probe_retries":2,"search_retries":3,"search_giveups":4},"ud)"
    R"(p2":{"samples_sec":[0.1,0.6,0.325],"creation_retries":5,"probe_ret)"
    R"(ries":6,"search_retries":7,"search_giveups":8},"udp3":{"samples_se)"
    R"(c":[181.0,181.5,588.25],"creation_retries":9,"probe_retries":10,"s)"
    R"(earch_retries":11,"search_giveups":12},"udp4":{"preserves_source_p)"
    R"(ort":true,"reuses_expired_binding":true,"observed_ports":[1024,400)"
    R"(01,65535]},"udp5":{"dns":{"samples_sec":[7.571428571428571,8.07142)"
    R"(8571428571,24.607142857142858],"creation_retries":17,"probe_retrie)"
    R"(s":18,"search_retries":19,"search_giveups":20},"http":{"samples_se)"
    R"(c":[11.428571428571429,11.928571428571429,37.142857142857146],"cre)"
    R"(ation_retries":21,"probe_retries":22,"search_retries":23,"search_g)"
    R"(iveups":24},"ntp":{"samples_sec":[17.571428571428573,18.0714285714)"
    R"(28573,57.10714285714286],"creation_retries":25,"probe_retries":26,)"
    R"("search_retries":27,"search_giveups":28},"snmp":{"samples_sec":[23)"
    R"(.0,23.5,74.75],"creation_retries":29,"probe_retries":30,"search_re)"
    R"(tries":31,"search_giveups":32},"tftp":{"samples_sec":[9.8571428571)"
    R"(42858,10.357142857142858,32.035714285714285],"creation_retries":33)"
    R"(,"probe_retries":34,"search_retries":35,"search_giveups":36}},"tcp)"
    R"(1":{"samples_sec":[7440.0,86400.0,1e-07],"exceeded_limit":true,"co)"
    R"(nnect_retries":2,"search_retries":3,"search_giveups":4},"tcp2":{"u)"
    R"(pload":{"mbps":94.5,"delay_ms":13.5,"bytes":100000000,"duration_se)"
    R"(c":12.625,"completed":true},"download":{"mbps":3.3,"delay_ms":0.47)"
    R"(14285714285714,"bytes":1,"duration_sec":12.625,"completed":true},")"
    R"(upload_bidir":{"mbps":0.001,"delay_ms":0.00014285714285714287,"byt)"
    R"(es":5000000000,"duration_sec":12.625,"completed":true},"download_b)"
    R"(idir":{"mbps":123456.789,"delay_ms":17636.684142857142,"bytes":42,)"
    R"("duration_sec":12.625,"completed":true}},"tcp4":{"max_bindings":10)"
    R"(23,"hit_probe_limit":true},"icmp":{"udp":[{"forwarded":true,"rst_i)"
    R"(nstead":true,"embedded_transport_ok":false,"embedded_ip_checksum_o)"
    R"(k":false},{"forwarded":false,"rst_instead":false,"embedded_transpo)"
    R"(rt_ok":true,"embedded_ip_checksum_ok":true},{"forwarded":true,"rst)"
    R"(_instead":false,"embedded_transport_ok":true,"embedded_ip_checksum)"
    R"(_ok":true},{"forwarded":false,"rst_instead":true,"embedded_transpo)"
    R"(rt_ok":true,"embedded_ip_checksum_ok":true},{"forwarded":true,"rst)"
    R"(_instead":false,"embedded_transport_ok":false,"embedded_ip_checksu)"
    R"(m_ok":true},{"forwarded":false,"rst_instead":false,"embedded_trans)"
    R"(port_ok":true,"embedded_ip_checksum_ok":false},{"forwarded":true,")"
    R"(rst_instead":true,"embedded_transport_ok":true,"embedded_ip_checks)"
    R"(um_ok":true},{"forwarded":false,"rst_instead":false,"embedded_tran)"
    R"(sport_ok":true,"embedded_ip_checksum_ok":true},{"forwarded":true,")"
    R"(rst_instead":false,"embedded_transport_ok":false,"embedded_ip_chec)"
    R"(ksum_ok":true},{"forwarded":false,"rst_instead":true,"embedded_tra)"
    R"(nsport_ok":true,"embedded_ip_checksum_ok":true}],"tcp":[{"forwarde)"
    R"(d":false,"rst_instead":false,"embedded_transport_ok":true,"embedde)"
    R"(d_ip_checksum_ok":true},{"forwarded":true,"rst_instead":true,"embe)"
    R"(dded_transport_ok":false,"embedded_ip_checksum_ok":false},{"forwar)"
    R"(ded":false,"rst_instead":true,"embedded_transport_ok":false,"embed)"
    R"(ded_ip_checksum_ok":false},{"forwarded":true,"rst_instead":false,")"
    R"(embedded_transport_ok":false,"embedded_ip_checksum_ok":false},{"fo)"
    R"(rwarded":false,"rst_instead":true,"embedded_transport_ok":true,"em)"
    R"(bedded_ip_checksum_ok":false},{"forwarded":true,"rst_instead":true)"
    R"(,"embedded_transport_ok":false,"embedded_ip_checksum_ok":true},{"f)"
    R"(orwarded":false,"rst_instead":false,"embedded_transport_ok":false,)"
    R"("embedded_ip_checksum_ok":false},{"forwarded":true,"rst_instead":t)"
    R"(rue,"embedded_transport_ok":false,"embedded_ip_checksum_ok":false})"
    R"(,{"forwarded":false,"rst_instead":true,"embedded_transport_ok":tru)"
    R"(e,"embedded_ip_checksum_ok":false},{"forwarded":true,"rst_instead")"
    R"(:false,"embedded_transport_ok":false,"embedded_ip_checksum_ok":fal)"
    R"(se}],"query_error_forwarded":true,"flow_retries":6},"transports":{)"
    R"("sctp_connects":true,"sctp_data_ok":true,"dccp_connects":true,"sct)"
    R"(p_action":2,"dccp_action":1},"dns":{"udp_ok":true,"tcp_connects":t)"
    R"(rue,"tcp_answers":true,"tcp_upstream_udp":true,"big_udp_ok":true,")"
    R"(truncated_seen":true,"dnssec_ready":true,"big_udp_retries":8},"qui)"
    R"(rks":{"decrements_ttl":true,"honors_record_route":true,"hairpins_u)"
    R"(dp":true},"stun":{"success":true,"reflexive_correct":true,"port_pr)"
    R"(eserved":true,"mapping":2},"binding_rate":{"attempted":200,"establ)"
    R"(ished":128,"bindings_per_sec":2500.0},"units":[{"unit":"udp1","sta)"
    R"(tus":"ok","attempts":1,"reason":"","t_start_ns":10,"t_end_ns":20},)"
    R"({"unit":"udp2","status":"degraded","attempts":2,"reason":"hard_dea)"
    R"(dline","t_start_ns":30,"t_end_ns":40},{"unit":"udp3","status":"gav)"
    R"(e_up","attempts":3,"reason":"hard_deadline;attack=x","t_start_ns":)"
    R"(50,"t_end_ns":60},{"unit":"udp4","status":"quarantined","attempts")"
    R"(:0,"reason":"device_quarantined","t_start_ns":70,"t_end_ns":70}]})";

} // namespace

TEST(UnitPayload, EveryUnitRoundTripsByteIdentically) {
    const DeviceResults r = every_field_set();
    DeviceResults fresh;
    fresh.tag = r.tag;
    fresh.units = r.units;
    for (const auto& unit : unit_plan(CampaignConfig::everything())) {
        const std::string json = unit_payload_json(r, unit);
        std::string err;
        const auto v = report::json_parse(json, &err);
        ASSERT_TRUE(v.has_value()) << unit << ": " << err;
        ASSERT_TRUE(apply_unit_payload(fresh, unit, *v)) << unit;
        EXPECT_EQ(unit_payload_json(fresh, unit), json) << unit;
    }
    // Replaying every unit rebuilds the whole record, byte for byte.
    EXPECT_EQ(device_results_json(fresh), device_results_json(r));
    EXPECT_EQ(device_results_json(r), kEveryFieldJson);
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

TEST(Supervisor, ResumeRejectsEntryTagMismatch) {
    // The header's roster and every entry's tag must agree: a segment
    // whose one entry names another device is refused, not replayed.
    const std::string path = journal_path_for("entry_tag");
    std::remove(path.c_str());
    auto cfg = quick_campaign();
    cfg.supervisor.journal_path = path;
    run_roster(cfg, roster3());
    auto lines = lines_of(slurp(path));
    ASSERT_EQ(lines.size(), 10u); // header + 3 units x 3 devices
    const std::string from = "\"tag\":\"ap\"", to = "\"tag\":\"zz\"";
    const std::size_t at = lines[5].find(from); // ap's second unit
    ASSERT_NE(at, std::string::npos) << lines[5];
    lines[5].replace(at, from.size(), to);
    std::string edited;
    for (const auto& l : lines) edited += l + "\n";
    spit(path, edited);

    auto rcfg = cfg;
    rcfg.supervisor.resume = true;
    EXPECT_THROW(run_roster(rcfg, roster3()), std::runtime_error);
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
