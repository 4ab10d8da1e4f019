// fault_sweep: measurement robustness under injected faults. Re-runs the
// UDP-1, TCP-1 and DNS probes across a grid of WAN impairment levels
// (seeded loss + reordering + jitter) with the harness retry/backoff
// knobs enabled, and checks that every measured binding timeout stays
// within one search-resolution step of the lossless ground truth. The
// ground truth and every level are campaigns of their own through
// bench::run_campaign; a level's impairments are declared in
// CampaignConfig::impair under a per-level seed, so each device draws
// from its own impair_seed_for streams. Ends with a scripted-fault demo
// on a one-device testbed: a reboot plus stall injected mid-search,
// which the hardened harness must survive without hanging.
//
// Exit code 0 = every device at every level within tolerance; 1 = not.
// Extra env knobs on top of bench_common's:
//   GATEKIT_FAULT_SMOKE  shrink the grid to one level (ctest smoke)
#include <iomanip>

#include "bench_common.hpp"

using namespace gatekit;
using namespace gatekit::bench;

namespace {

struct Level {
    double loss;
    double reorder;
    sim::Duration jitter;

    sim::LinkImpairments wan() const {
        sim::LinkImpairments imp;
        imp.loss = loss;
        imp.reorder = reorder;
        imp.jitter = jitter;
        return imp;
    }
};

/// Campaign seed of impairment level `li`; every device's streams derive
/// from it through harness::impair_seed_for.
std::uint64_t level_seed(std::size_t li) { return 0x5eedULL + li; }

double median_of(const harness::UdpTimeoutResult& r) {
    return r.summary().median;
}
double median_of(const harness::TcpTimeoutResult& r) {
    return r.summary().median;
}

} // namespace

int main() {
    const int reps = env_int("GATEKIT_REPS", 3);
    harness::CampaignConfig truth_cfg;
    truth_cfg.udp1 = truth_cfg.tcp1 = truth_cfg.dns = true;
    truth_cfg.udp.repetitions = reps;
    truth_cfg.tcp_timeout.repetitions = std::max(1, reps / 3);

    std::cerr << "[fault_sweep] lossless ground-truth campaign...\n";
    const auto truth = run_campaign(truth_cfg);

    // The impaired campaign adds the full retry/backoff hardening. The
    // UDP watchdog slack must exceed the trial's gap-proportional
    // cooldown, which is capped at hi_limit.
    harness::CampaignConfig hard_cfg = truth_cfg;
    hard_cfg.udp.search.retry.trial_timeout =
        hard_cfg.udp.search.hi_limit + std::chrono::minutes(5);
    hard_cfg.udp.search.retry.max_attempts = 4;
    hard_cfg.udp.search.retry.backoff = std::chrono::seconds(2);
    hard_cfg.udp.retry.creation_retries = 3;
    hard_cfg.udp.retry.probe_retries = 3;
    hard_cfg.tcp_timeout.search.retry.trial_timeout =
        std::chrono::minutes(30); // connect + 30 s grace + retrans slack
    hard_cfg.tcp_timeout.search.retry.max_attempts = 4;
    hard_cfg.tcp_timeout.connect_retries = 3;

    std::vector<Level> levels;
    if (env_flag("GATEKIT_FAULT_SMOKE")) {
        levels.push_back({0.02, 0.1, std::chrono::microseconds(500)});
    } else {
        levels.push_back({0.01, 0.05, std::chrono::microseconds(200)});
        levels.push_back({0.02, 0.1, std::chrono::microseconds(500)});
        levels.push_back({0.05, 0.1, std::chrono::microseconds(500)});
    }

    report::CsvWriter csv({"tag", "loss", "udp1_truth", "udp1_med",
                           "tcp1_truth", "tcp1_med", "udp1_delta",
                           "tcp1_delta", "dns_udp_ok", "search_retries",
                           "search_giveups", "ok"});
    std::cout << "fault_sweep: measured timeout vs lossless truth "
                 "(tolerance: one resolution step)\n";
    std::cout << std::left << std::setw(10) << "device" << std::right
              << std::setw(6) << "loss%" << std::setw(12) << "udp1[s]"
              << std::setw(12) << "d_udp1" << std::setw(12) << "tcp1[s]"
              << std::setw(12) << "d_tcp1" << std::setw(8) << "retry"
              << std::setw(8) << "giveup" << "  verdict\n";

    bool all_ok = true;
    for (std::size_t li = 0; li < levels.size(); ++li) {
        const auto& lvl = levels[li];
        hard_cfg.impair.wan = lvl.wan();
        hard_cfg.impair.seed = level_seed(li);
        std::cerr << "[fault_sweep] campaign at loss="
                  << lvl.loss * 100.0 << "%...\n";
        const auto impaired = run_campaign(hard_cfg);

        const double udp_tol =
            sim::to_sec(hard_cfg.udp.search.resolution) + 1e-9;
        const double tcp_tol =
            sim::to_sec(hard_cfg.tcp_timeout.search.resolution) + 1e-9;
        for (std::size_t i = 0; i < impaired.size(); ++i) {
            const double u_truth = median_of(truth[i].udp1);
            const double u_med = median_of(impaired[i].udp1);
            const double t_truth = median_of(truth[i].tcp1);
            const double t_med = median_of(impaired[i].tcp1);
            const double du = std::abs(u_med - u_truth);
            const double dt = std::abs(t_med - t_truth);
            const int retries = impaired[i].udp1.search_retries +
                                impaired[i].udp1.creation_retries +
                                impaired[i].udp1.probe_retries +
                                impaired[i].tcp1.search_retries +
                                impaired[i].tcp1.connect_retries;
            const int giveups = impaired[i].udp1.search_giveups +
                                impaired[i].tcp1.search_giveups;
            const bool ok = du <= udp_tol && dt <= tcp_tol && giveups == 0;
            all_ok = all_ok && ok;
            std::cout << std::left << std::setw(10) << impaired[i].tag
                      << std::right << std::fixed << std::setprecision(1)
                      << std::setw(6) << lvl.loss * 100.0
                      << std::setw(12) << u_med << std::setw(12) << du
                      << std::setw(12) << t_med << std::setw(12) << dt
                      << std::setw(8) << retries << std::setw(8) << giveups
                      << "  " << (ok ? "PASS" : "FAIL") << "\n";
            csv.add_row({impaired[i].tag, report::fmt_double(lvl.loss),
                         report::fmt_double(u_truth),
                         report::fmt_double(u_med),
                         report::fmt_double(t_truth),
                         report::fmt_double(t_med), report::fmt_double(du),
                         report::fmt_double(dt),
                         impaired[i].dns.udp_ok ? "1" : "0",
                         std::to_string(retries), std::to_string(giveups),
                         ok ? "1" : "0"});
        }
    }

    // Scripted-fault demo: reboot + 1 s stall injected into the first
    // device two minutes into a UDP-1 search over a mildly lossy WAN, on
    // a one-device testbed of its own. The converged value is
    // meaningless (the reboot flushed the binding under test); the
    // requirement is that the hardened search terminates.
    std::cerr << "[fault_sweep] scripted reboot/stall mid-search demo...\n";
    sim::EventLoop loop;
    harness::Testbed tb(loop);
    tb.add_device(devices::all_profiles().front());
    tb.start_and_wait();
    const Level demo_level{0.02, 0.1, std::chrono::microseconds(500)};
    auto& wan = *tb.slot(0).wan_link;
    wan.set_impairments(sim::Link::Side::A, demo_level.wan(),
                        harness::impair_seed_for(level_seed(99), 0, true, 0));
    wan.set_impairments(sim::Link::Side::B, demo_level.wan(),
                        harness::impair_seed_for(level_seed(99), 0, true, 1));
    auto demo_cfg = hard_cfg.udp;
    demo_cfg.repetitions = 1;
    bool demo_done = false;
    harness::UdpTimeoutResult demo;
    harness::measure_udp_timeout(
        tb, 0, harness::UdpPattern::SolitaryOutbound, demo_cfg,
        [&](harness::UdpTimeoutResult r) {
            demo = std::move(r);
            demo_done = true;
        });
    loop.after(std::chrono::minutes(2), [&tb] {
        gateway::GatewayFault fault;
        fault.stall = std::chrono::seconds(1);
        tb.slot(0).gw->inject_fault(fault);
    });
    loop.run();
    all_ok = all_ok && demo_done;
    std::cout << "\nscripted fault demo: "
              << (demo_done ? "search terminated" : "SEARCH HUNG")
              << " (faults injected: " << tb.slot(0).gw->faults_injected()
              << ", trial retries: " << demo.search_retries
              << ", giveups: " << demo.search_giveups << ")\n";

    std::cout << "\nfault_sweep overall: " << (all_ok ? "PASS" : "FAIL")
              << "\n";
    maybe_csv("fault_sweep", csv);
    return all_ok ? 0 : 1;
}
