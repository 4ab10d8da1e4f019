// journal_check: end-to-end validation of the campaign journal and its
// crash/resume determinism guarantee. Every campaign runs through
// ShardScheduler, the executor the figure benches use, on the full
// measurement set (CampaignConfig::everything(), one repetition per
// search, 300 kB transfers) over a three-device roster: al quantizes
// binding timeouts to 40 s, ap allocates ports sequentially, be1
// preserves source ports. For the lossless grid and for an impaired
// grid (3% WAN loss, 2% duplication, 200 us jitter) it:
//
//   1. runs a baseline campaign with no journal, then the same
//      campaign journaled, and checks the per-device results are
//      byte-identical (journaling must not perturb the measurement);
//   2. validates the journal against the schema;
//   3. simulates a crash after EVERY journal line: truncates the
//      journal to its first k lines, resumes at 1 and at 4 workers, and
//      checks both the per-device results and the regrown journal are
//      byte-identical to the uninterrupted run;
//   4. simulates a kill mid-append at every record: the journal ends
//      in the first half of that record (a torn final line), and the
//      resume must drop it and still reproduce the uninterrupted run;
//
// and on the lossless journal it checks the failure modes: a corrupted
// record fails validation, and a journal from a different campaign
// (fingerprint mismatch) refuses to resume.
//
// Exit code 0 = all of the above hold; 1 = not. Wired into ctest as
// `journal_smoke`.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "devices/profiles.hpp"
#include "harness/results_io.hpp"
#include "harness/testrund.hpp"
#include "report/journal.hpp"

using namespace gatekit;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::cerr << "journal_check: FAIL: " << what << "\n";
    }
}

std::vector<gateway::DeviceProfile> roster() {
    std::vector<gateway::DeviceProfile> out;
    for (const auto& p : devices::all_profiles())
        if (p.tag == "al" || p.tag == "ap" || p.tag == "be1")
            out.push_back(p);
    return out;
}

harness::CampaignConfig campaign() {
    // Every unit the harness implements, trimmed to one repetition per
    // search and 300 kB transfers so a three-device campaign stays a
    // few seconds of wall time.
    auto cfg = harness::CampaignConfig::everything();
    cfg.udp.repetitions = 1;
    cfg.tcp_timeout.repetitions = 1;
    cfg.throughput.bytes = 300'000;
    return cfg;
}

harness::CampaignConfig impaired_campaign() {
    // The same campaign over a lossy, duplicating, jittery WAN: every
    // knob here draws from the per-direction impairment RNG.
    auto cfg = campaign();
    cfg.impair.wan.loss = 0.03;
    cfg.impair.wan.duplicate = 0.02;
    cfg.impair.wan.jitter = std::chrono::microseconds(200);
    return cfg;
}

std::vector<harness::DeviceResults>
run_once(const harness::CampaignConfig& cfg,
         const std::string& journal_path = "", bool resume = false,
         int workers = 1) {
    harness::ShardScheduler::Options opts;
    opts.roster = roster();
    opts.config = cfg;
    opts.workers = workers;
    opts.journal_path = journal_path;
    opts.resume = resume;
    return harness::ShardScheduler::run(opts).results;
}

/// Remove a journal and the temp file a failed rewrite may leave.
void remove_journal(const std::string& path) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
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

std::string results_json(const std::vector<harness::DeviceResults>& rs) {
    std::string out;
    for (const auto& r : rs) out += harness::device_results_json(r) + "\n";
    return out;
}

/// Steps 1-4 for one campaign config. Returns the uninterrupted
/// journal text and stores the baseline results in `baseline_json`.
std::string run_suite(const std::string& mode,
                      const harness::CampaignConfig& cfg,
                      const std::string& path, std::string& baseline_json) {
    remove_journal(path);

    std::cerr << "journal_check[" << mode << "]: baseline campaign...\n";
    baseline_json = results_json(run_once(cfg));

    std::cerr << "journal_check[" << mode << "]: journaled campaign...\n";
    check(results_json(run_once(cfg, path)) == baseline_json,
          mode + ": journaling perturbed the campaign results");

    const std::string journal_text = slurp(path);
    std::string error;
    check(report::validate_journal(journal_text, &error),
          mode + ": journal failed validation: " + error);

    const auto lines = lines_of(journal_text);
    check(lines.size() > 1, mode + ": journal is unexpectedly empty");

    // Every cut: the first k whole lines, then (for every record) the
    // first k-1 lines plus half of record k.
    struct Cut {
        std::string name;
        std::string text;
    };
    std::vector<Cut> cuts;
    for (std::size_t k = 1; k <= lines.size(); ++k) {
        std::string prefix;
        for (std::size_t i = 0; i < k; ++i) prefix += lines[i] + "\n";
        cuts.push_back({"after line " + std::to_string(k), prefix});
    }
    for (std::size_t k = 1; k < lines.size(); ++k) {
        std::string prefix;
        for (std::size_t i = 0; i < k; ++i) prefix += lines[i] + "\n";
        prefix += lines[k].substr(0, lines[k].size() / 2);
        cuts.push_back({"torn line " + std::to_string(k + 1), prefix});
    }

    int diverged = 0, total = 0;
    for (const auto& cut : cuts) {
        for (const int workers : {1, 4}) {
            ++total;
            const std::string where =
                cut.name + " at workers=" + std::to_string(workers);
            remove_journal(path);
            spit(path, cut.text);
            std::string actual, regrown;
            try {
                actual = results_json(run_once(cfg, path, true, workers));
                regrown = slurp(path);
            } catch (const std::exception& e) {
                ++diverged;
                check(false, mode + ": resume " + where +
                                 " threw: " + e.what());
                continue;
            }
            if (actual != baseline_json) {
                ++diverged;
                if (diverged == 1) {
                    // Leave the first divergence on disk for diffing.
                    spit(path + ".expected.json", baseline_json);
                    spit(path + ".actual.json", actual);
                }
                check(false, mode + ": resume " + where +
                                 " diverged from the uninterrupted run");
            } else if (regrown != journal_text) {
                ++diverged;
                check(false, mode + ": regrown journal " + where +
                                 " is not byte-identical");
            }
        }
    }
    std::cerr << "journal_check[" << mode << "]: " << (total - diverged)
              << "/" << total
              << " kill/resume cuts reproduced the uninterrupted run\n";
    remove_journal(path);
    spit(path, journal_text);
    return journal_text;
}

} // namespace

int main() {
    // Phase A: the lossless grid.
    const std::string path = "gatekit_journal_check.jsonl";
    std::string lossless_json;
    const std::string journal_text =
        run_suite("lossless", campaign(), path, lossless_json);
    const auto lines = lines_of(journal_text);

    // A corrupted record is caught.
    std::string error;
    if (lines.size() > 1) {
        auto bad = lines;
        bad[bad.size() / 2] = "{\"schema\":\"bogus\"}";
        std::string bad_text;
        for (const auto& l : bad) bad_text += l + "\n";
        check(!report::validate_journal(bad_text, &error),
              "corrupted journal passed validation");
    }

    // A journal from a different campaign refuses to resume.
    spit(path, journal_text);
    auto other = campaign();
    other.binding_rate_count = 51; // changes the fingerprint
    bool threw = false;
    try {
        run_once(other, path, /*resume=*/true);
    } catch (const std::exception& e) {
        threw = true;
        std::cerr << "journal_check: fingerprint mismatch rejected: "
                  << e.what() << "\n";
    }
    check(threw, "fingerprint mismatch was not rejected");
    remove_journal(path);

    // Phase B: the impaired grid. The impairments must actually shape
    // the measurement, or the sweep exercised nothing the lossless one
    // did not.
    const std::string ipath = "gatekit_journal_check_impaired.jsonl";
    std::string impaired_json;
    run_suite("impaired", impaired_campaign(), ipath, impaired_json);
    check(impaired_json != lossless_json,
          "impaired campaign measured the same as the lossless one");
    remove_journal(ipath);

    std::cout << "journal_check: " << (failures == 0 ? "PASS" : "FAIL")
              << "\n";
    return failures == 0 ? 0 : 1;
}
