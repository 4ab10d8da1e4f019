// journal_check: end-to-end validation of the campaign write-ahead
// journal (schema gatekit.journal.v1) and its crash/resume determinism
// guarantee. Every campaign runs through ShardScheduler, the executor
// the figure benches use. On a three-device roster (one
// sequential-allocation device, one coarse-granularity device) it:
//
//   1. runs a baseline campaign with no journal, then the same
//      campaign journaled, and checks the per-device results are
//      byte-identical (journaling must not perturb the measurement);
//   2. validates the merged journal against the schema;
//   3. simulates a crash after EVERY unit boundary: truncates the
//      merged journal to its first k records, resumes (the scheduler
//      carves the prefix into per-shard segments), and checks both the
//      per-device results and the regrown merged journal are
//      byte-identical to the uninterrupted run;
//   4. checks the failure modes: a corrupted record fails validation,
//      and a journal from a different campaign (fingerprint mismatch)
//      refuses to resume;
//   5. repeats the whole sweep on an impaired grid (WAN loss, duplicate
//      and jitter > 0). The impairment fate/jitter decisions consume
//      per-direction RNG draws; resuming with a fresh RNG instead of
//      the journaled (seed, draw-count) state diverges at the first
//      post-resume draw, so this phase failed before the journal
//      carried `rng` stamps.
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
    // al: 40 s binding-granularity quantization; ap: sequential port
    // allocation with the largest cap; be1: plain preserve-port device.
    std::vector<gateway::DeviceProfile> out;
    for (const auto& p : devices::all_profiles())
        if (p.tag == "al" || p.tag == "ap" || p.tag == "be1")
            out.push_back(p);
    return out;
}

harness::CampaignConfig campaign() {
    // The quick single-shot probes: every result type that isn't a
    // multi-minute timeout search, so the boundary sweep in step 3 stays
    // cheap while still exercising most payload codecs.
    harness::CampaignConfig cfg;
    cfg.udp4 = cfg.icmp = cfg.transports = cfg.dns = true;
    cfg.quirks = cfg.stun = cfg.binding_rate = true;
    cfg.binding_rate_count = 50;
    return cfg;
}

harness::CampaignConfig impaired_campaign() {
    // Smaller unit set (the probes that push the most packets through
    // the impairment layer) so the per-boundary resumes stay cheap even
    // with retries, plus a lossy/duplicating/jittery WAN. Every knob
    // here draws from the per-direction impairment RNG.
    harness::CampaignConfig cfg;
    cfg.udp4 = cfg.icmp = cfg.dns = cfg.binding_rate = true;
    cfg.binding_rate_count = 50;
    cfg.impair.wan.loss = 0.03;
    cfg.impair.wan.duplicate = 0.02;
    cfg.impair.wan.jitter = std::chrono::microseconds(200);
    return cfg;
}

std::vector<harness::DeviceResults>
run_once(const harness::CampaignConfig& cfg,
         const std::string& journal_path = "", bool resume = false) {
    harness::ShardScheduler::Options opts;
    opts.roster = roster();
    opts.config = cfg;
    opts.journal_path = journal_path;
    opts.resume = resume;
    return harness::ShardScheduler::run(opts).results;
}

/// Remove a merged journal and any shard segments a failed run left.
void remove_journal(const std::string& path) {
    std::remove(path.c_str());
    for (std::size_t k = 0; k < roster().size(); ++k)
        std::remove(harness::ShardScheduler::segment_path(
                        path, static_cast<int>(k))
                        .c_str());
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

/// Steps 1-3 for one campaign config: baseline vs journaled identity,
/// schema validation, and the kill-at-every-boundary resume sweep.
/// Returns the uninterrupted journal text (left on disk at `path`).
std::string run_suite(const std::string& mode,
                      const harness::CampaignConfig& cfg,
                      const std::string& path) {
    remove_journal(path);

    std::cerr << "journal_check[" << mode << "]: baseline campaign...\n";
    const auto baseline = run_once(cfg);
    const std::string baseline_json = results_json(baseline);

    std::cerr << "journal_check[" << mode << "]: journaled campaign...\n";
    const auto journaled = run_once(cfg, path);
    check(results_json(journaled) == baseline_json,
          mode + ": journaling perturbed the campaign results");

    const std::string journal_text = slurp(path);
    std::string error;
    check(report::validate_journal(journal_text, &error),
          mode + ": journal failed validation: " + error);

    const auto lines = lines_of(journal_text);
    check(lines.size() > 1, mode + ": journal is unexpectedly empty");
    int boundaries = 0;
    for (std::size_t k = 1; k <= lines.size(); ++k) {
        std::string prefix;
        for (std::size_t i = 0; i < k; ++i) prefix += lines[i] + "\n";
        spit(path, prefix);
        const auto resumed = run_once(cfg, path, /*resume=*/true);
        if (results_json(resumed) != baseline_json) {
            // Leave both sides on disk for diffing.
            spit(path + ".expected.json", baseline_json);
            spit(path + ".actual.json", results_json(resumed));
            check(false, mode + ": resume after record " +
                             std::to_string(k - 1) +
                             " diverged from the uninterrupted run");
            break;
        }
        if (slurp(path) != journal_text) {
            check(false, mode + ": regrown journal after record " +
                             std::to_string(k - 1) +
                             " is not byte-identical");
            break;
        }
        ++boundaries;
    }
    std::cerr << "journal_check[" << mode << "]: " << boundaries
              << " kill/resume boundaries replayed byte-identically\n";
    spit(path, journal_text);
    return journal_text;
}

/// True when at least one `"draws":N` in the text has N > 0 — i.e. the
/// journal records an RNG that actually advanced.
bool has_nonzero_draws(const std::string& text) {
    const std::string needle = "\"draws\":";
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
        std::size_t i = pos + needle.size();
        std::uint64_t v = 0;
        while (i < text.size() && text[i] >= '0' && text[i] <= '9')
            v = v * 10 + static_cast<std::uint64_t>(text[i++] - '0');
        if (v > 0) return true;
    }
    return false;
}

} // namespace

int main() {
    // Phase A: the lossless grid (the original guarantee).
    const std::string path = "gatekit_journal_check.jsonl";
    const std::string journal_text = run_suite("lossless", campaign(), path);
    const auto lines = lines_of(journal_text);

    // 4a. Corruption is caught.
    std::string error;
    if (lines.size() > 1) {
        auto bad = lines;
        bad[bad.size() / 2] = "{\"schema\":\"bogus\"}";
        std::string bad_text;
        for (const auto& l : bad) bad_text += l + "\n";
        check(!report::validate_journal(bad_text, &error),
              "corrupted journal passed validation");
    }

    // 4b. A journal from a different campaign refuses to resume.
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

    // Phase B: the impaired grid. Same sweep with loss/duplicate/jitter
    // active on every WAN link — the regression that motivated journaling
    // impairment-RNG state (seed + draw count) per device direction.
    const std::string ipath = "gatekit_journal_check_impaired.jsonl";
    const std::string itext = run_suite("impaired", impaired_campaign(),
                                        ipath);
    check(itext.find("\"rng\":[") != std::string::npos,
          "impaired journal carries no rng state stamps");
    check(has_nonzero_draws(itext),
          "impaired journal rng stamps never saw a draw — the sweep "
          "exercised nothing");
    remove_journal(ipath);

    std::cout << "journal_check: " << (failures == 0 ? "PASS" : "FAIL")
              << "\n";
    return failures == 0 ? 0 : 1;
}
