// shard_scale: scaling study + correctness gate for the device-sharded
// campaign scheduler. Runs the same campaign at increasing worker
// counts, times each run, and prints a speedup table (the EXPERIMENTS.md
// shard-scale entry is generated from this output).
//
// Gates (exit non-zero on violation):
//   * BYTE GATE, always on: the per-device results and the journal
//     must be byte-identical at every worker count. A worker
//     count that changes a single campaign byte is a determinism bug,
//     not a tuning knob.
//   * SPEEDUP GATE, only when the host has >= 8 hardware threads: the
//     8-worker run must be at least 3x faster than the 1-worker run
//     over the full 34-device roster. On smaller hosts (or with
//     GATEKIT_DEVICES reducing the roster) the table is report-only —
//     wall-clock assertions on oversubscribed cores measure the
//     scheduler's mood, not the code.
//
// Env knobs: GATEKIT_DEVICES (roster limit), GATEKIT_REPS (unused here —
// the campaign is the quick-probe subset so the sweep stays minutes).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "harness/results_io.hpp"

using namespace gatekit;

namespace {

std::string results_json(const std::vector<harness::DeviceResults>& rs) {
    std::string out;
    for (const auto& r : rs) out += harness::device_results_json(r) + "\n";
    return out;
}

} // namespace

int main() {
    const auto& profiles = devices::all_profiles();
    const int limit =
        bench::env_device_limit(static_cast<int>(profiles.size()));
    std::vector<gateway::DeviceProfile> roster;
    for (const auto& p : profiles) {
        if (limit > 0 && static_cast<int>(roster.size()) >= limit) break;
        roster.push_back(p);
    }

    harness::CampaignConfig cfg;
    cfg.udp4 = cfg.icmp = cfg.transports = cfg.dns = true;
    cfg.quirks = cfg.stun = cfg.binding_rate = true;
    cfg.binding_rate_count = 200;

    const unsigned hw = std::thread::hardware_concurrency();
    std::cerr << "[shard_scale] roster=" << roster.size()
              << " devices, hardware threads=" << hw << "\n";

    std::vector<int> counts;
    for (int w : {1, 2, 4, 8})
        if (w == 1 || w <= static_cast<int>(roster.size())) counts.push_back(w);

    std::string ref_results, ref_journal;
    double t1 = 0.0, t8 = -1.0;
    int failures = 0;
    std::cout << "| workers | wall (s) | speedup | bytes |\n";
    std::cout << "|---------|----------|---------|-------|\n";
    for (const int w : counts) {
        const std::string path =
            "gatekit_shard_scale_w" + std::to_string(w) + ".jsonl";
        std::remove(path.c_str());
        harness::ShardScheduler::Options opts;
        opts.roster = roster;
        opts.config = cfg;
        opts.workers = w;
        opts.journal_path = path;
        const auto start = std::chrono::steady_clock::now();
        auto out = harness::ShardScheduler::run(opts);
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        const std::string results = results_json(out.results);
        const std::string journal = bench::read_file(path).value_or("");
        std::remove(path.c_str());

        bool same = true;
        if (w == 1) {
            ref_results = results;
            ref_journal = journal;
            t1 = secs;
        } else {
            same = results == ref_results && journal == ref_journal;
            if (!same) {
                ++failures;
                std::cerr << "[shard_scale] FAIL: worker count " << w
                          << " changed the campaign bytes\n";
            }
        }
        if (w == 8) t8 = secs;
        char line[128];
        std::snprintf(line, sizeof(line),
                      "| %7d | %8.2f | %6.2fx | %s |\n", w, secs,
                      t1 > 0.0 && secs > 0.0 ? t1 / secs : 0.0,
                      same ? "same" : "DIFFER");
        std::cout << line;
    }

    if (t8 >= 0.0 && hw >= 8 && roster.size() == profiles.size()) {
        const double speedup = t8 > 0.0 ? t1 / t8 : 0.0;
        if (speedup < 3.0) {
            ++failures;
            std::cerr << "[shard_scale] FAIL: 8-worker speedup "
                      << speedup << "x < 3x gate\n";
        } else {
            std::cerr << "[shard_scale] speedup gate: " << speedup
                      << "x at 8 workers (>= 3x)\n";
        }
    } else {
        std::cerr << "[shard_scale] speedup gate skipped ("
                  << (hw < 8 ? "fewer than 8 hardware threads"
                             : "reduced roster")
                  << "); table is report-only\n";
    }

    std::cout << "shard_scale: " << (failures == 0 ? "PASS" : "FAIL")
              << "\n";
    return failures == 0 ? 0 : 1;
}
