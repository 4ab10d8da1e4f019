#include "harness/testrund.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness/results_io.hpp"
#include "obs/timeseries.hpp"
#include "report/journal.hpp"
#include "util/assert.hpp"

namespace gatekit::harness {

std::uint64_t impair_seed_for(std::uint64_t campaign_seed, int device,
                              bool wan_link, int direction) {
    // splitmix64 finalizer over campaign_seed xor the stream tag. Masked
    // to 62 bits: the journal stores seeds as JSON integers and int64
    // round-trips exactly only below 2^63.
    std::uint64_t x = campaign_seed ^
                      (static_cast<std::uint64_t>(device) * 4ULL +
                       (wan_link ? 2ULL : 0ULL) +
                       static_cast<std::uint64_t>(direction));
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x = x ^ (x >> 31);
    return x & ((1ULL << 62) - 1);
}

const char* to_string(UnitStatus s) {
    switch (s) {
    case UnitStatus::Ok: return "ok";
    case UnitStatus::Degraded: return "degraded";
    case UnitStatus::GaveUp: return "gave_up";
    case UnitStatus::Quarantined: return "quarantined";
    }
    return "ok";
}

bool unit_status_from_string(std::string_view s, UnitStatus& out) {
    if (s == "ok") {
        out = UnitStatus::Ok;
    } else if (s == "degraded") {
        out = UnitStatus::Degraded;
    } else if (s == "gave_up") {
        out = UnitStatus::GaveUp;
    } else if (s == "quarantined") {
        out = UnitStatus::Quarantined;
    } else {
        return false;
    }
    return true;
}

/// Campaign supervisor for one device: walks the unit plan, launching
/// one probe attempt at a time. Each attempt carries a fresh cancel token
/// and a generation stamp; deadline watchdogs flip the token (the probe
/// quiesces at its next trial boundary) and bump the generation (a late
/// completion is dropped instead of double-advancing the campaign).
/// With the default policy no watchdog is ever scheduled and every unit
/// completes through the same callback chain as the unsupervised runner,
/// so the event stream is bit-for-bit identical.
struct Testrund::Runner : std::enable_shared_from_this<Testrund::Runner> {
    /// Testbed slot of the measured device (the testbed holds only it).
    static constexpr int kSlot = 0;

    Runner(Testbed& tb, CampaignConfig config)
        : tb(tb), config(std::move(config)), plan(unit_plan(this->config)) {}

    Testbed& tb;
    CampaignConfig config;
    std::vector<std::string> plan;
    DeviceResults result;
    bool finished = false;
    std::size_t unit_idx = 0;

    // Per-unit supervisor state.
    std::uint64_t gen = 0; ///< stamps attempts; stale callbacks are dropped
    int attempts = 1;
    sim::TimePoint unit_start{};
    std::shared_ptr<bool> cancel;
    bool hard_hit = false;
    bool unit_done = false;
    sim::EventId soft_ev{}, hard_ev{}, force_ev{};

    // Quarantine state.
    int device_failures = 0;
    bool device_quarantined = false;

    /// NAT hardening counters at unit start. finish_unit() compares them
    /// against the live values and annotates a failed unit's reason with
    /// any attack-shaped deltas, so campaign post-mortems can separate
    /// probe bugs from hostile traffic the gateway was fending off.
    struct AttackSnap {
        std::uint64_t icmp_hostile = 0; ///< rate-limited + bad-quote + teardown
        std::uint64_t wan_syn = 0;      ///< dropped + tarpitted + stray
        std::uint64_t budget = 0;       ///< host-budget refusals, both tables
    };
    AttackSnap attack_snap;

    report::JournalWriter journal;
    bool journaling = false;

    // Supervisor instruments; branch-on-null.
    obs::Counter* m_retry = nullptr;
    obs::Counter* m_degraded = nullptr;
    obs::Counter* m_quarantined = nullptr;

    Testbed::DeviceSlot& slot() { return tb.slot(kSlot); }
    sim::EventLoop& loop() { return tb.loop(); }
    const std::string& unit() const { return plan[unit_idx]; }
    std::string label() { return Testbed::device_label(slot()); }

    bool supervision_active() const {
        return config.supervisor.soft_enabled() ||
               config.supervisor.hard_enabled() || journaling;
    }

    /// The device's global roster index. Journal entries and impairment
    /// RNG streams always use it, so a shard's segment stays
    /// carve/merge-compatible with the merged journal of the campaign.
    int global_dev() const { return config.shard.device_base; }

    /// The campaign fingerprint this journal binds to: precomputed by
    /// the shard scheduler (which hashes the full roster's profile
    /// identities once), or derived here for a one-device campaign.
    /// Hashing profile identities rather than tags is what makes the
    /// fingerprint cover sampled rosters, whose tags ("p0", "p1", ...)
    /// say nothing about behavior.
    std::string fingerprint() {
        if (!config.shard.fingerprint.empty())
            return config.shard.fingerprint;
        return campaign_fingerprint(
            config, {gateway::profile_identity(slot().gw->profile())});
    }

    /// Install the campaign's declarative impairments on the device's
    /// WAN link, each direction seeded from its own derived stream. Runs
    /// before any measurement traffic (bring-up is already complete and
    /// unimpaired), so the device's fate sequence is a pure function of
    /// (campaign seed, global device index, direction).
    void apply_impairments() {
        if (!config.impair.any()) return;
        auto& link = *slot().wan_link;
        link.set_impairments(
            sim::Link::Side::A, config.impair.wan,
            impair_seed_for(config.impair.seed, global_dev(), true, 0));
        link.set_impairments(
            sim::Link::Side::B, config.impair.wan,
            impair_seed_for(config.impair.seed, global_dev(), true, 1));
    }

    std::vector<std::string> roster() { return {result.tag}; }

    void start() {
        const auto& sup = config.supervisor;
        journaling = !sup.journal_path.empty(); // gates the instruments
        apply_impairments(); // before replay: RNG restore needs them live
        result.tag = slot().gw->profile().tag;
        if (plan.empty()) {
            finished = true; // nothing to measure
            return;
        }
        bind_instruments();
        std::int64_t resume_at_ns = -1;
        if (journaling) {
            if (sup.resume) {
                resume_at_ns = load_and_replay();
                if (!journal.open_append(sup.journal_path))
                    throw std::runtime_error(
                        "campaign journal: cannot append to '" +
                        sup.journal_path + "'");
            } else {
                report::JournalHeader header;
                header.schema = report::kJournalSchema;
                header.fingerprint = fingerprint();
                header.devices = roster();
                header.shard = config.shard.index;
                if (!journal.open_new(sup.journal_path, header))
                    throw std::runtime_error(
                        "campaign journal: cannot create '" +
                        sup.journal_path + "'");
            }
        }
        if (unit_idx >= plan.size()) {
            finished = true; // journal already covered every unit
            return;
        }
        if (resume_at_ns >= 0) {
            // Realign the sim clock with the uninterrupted run: the next
            // unit must start exactly when it would have, or every
            // granularity-quantized expiry downstream shifts.
            const sim::TimePoint t{sim::Duration(resume_at_ns)};
            if (t > loop().now()) {
                loop().at(t, [self = shared_from_this()] {
                    self->start_unit();
                });
                return;
            }
        }
        start_unit();
    }

    /// Replay the journal prefix into `result`, advancing the campaign
    /// pointer past every completed unit. Returns the sim time (ns) at
    /// which the first live unit must start, or -1 with nothing replayed.
    std::int64_t load_and_replay() {
        const auto& sup = config.supervisor;
        report::JournalHeader header;
        std::vector<report::JournalEntry> entries;
        std::string err;
        if (!report::JournalReader::load(sup.journal_path, header, entries,
                                         &err))
            throw std::runtime_error("campaign journal: " + err);
        if (header.fingerprint != fingerprint())
            throw std::runtime_error(
                "campaign journal: fingerprint mismatch (campaign config "
                "or roster changed since the journal was written)");
        if (header.devices != roster())
            throw std::runtime_error(
                "campaign journal: device roster mismatch");
        if (header.shard != config.shard.index)
            throw std::runtime_error(
                "campaign journal: shard index mismatch (journal written "
                "by shard " + std::to_string(header.shard) +
                ", resuming as shard " +
                std::to_string(config.shard.index) + ")");
        if (entries.empty()) return -1;

        for (const auto& e : entries) {
            if (unit_idx >= plan.size())
                throw std::runtime_error(
                    "campaign journal: more entries than planned units");
            if (e.device != global_dev() || e.unit != unit())
                throw std::runtime_error(
                    "campaign journal: entry order diverges from the "
                    "campaign plan at device " +
                    std::to_string(global_dev()) + " unit '" + unit() +
                    "'");
            if (e.tag != result.tag)
                throw std::runtime_error(
                    "campaign journal: entry for unit '" + e.unit +
                    "' carries tag '" + e.tag + "', device is '" +
                    result.tag + "'");
            UnitReport rep{e.unit,   UnitStatus::Ok, e.attempts,
                           e.reason, e.t_start_ns,   e.t_end_ns};
            if (!unit_status_from_string(e.status, rep.status))
                throw std::runtime_error(
                    "campaign journal: unknown status '" + e.status + "'");
            if (e.payload.type != report::JsonValue::Type::Null)
                apply_unit_payload(result, e.unit, e.payload);
            result.units.push_back(std::move(rep));
            note_unit_outcome(result.units.back().status);
            ++unit_idx;
        }
        const auto& last = entries.back();
        // Restore the allocator cursors the probes observe across unit
        // boundaries.
        auto& s = slot();
        auto& gw = *s.gw;
        tb.client().set_ephemeral_cursor(
            static_cast<std::uint16_t>(last.state.client_eph));
        tb.server().set_ephemeral_cursor(
            static_cast<std::uint16_t>(last.state.server_eph));
        gw.nat().udp_table().set_pool_cursor(
            static_cast<std::uint16_t>(last.state.udp_pool));
        gw.nat().tcp_table().set_pool_cursor(
            static_cast<std::uint16_t>(last.state.tcp_pool));
        // Restore the impairment RNG streams exactly where the replayed
        // traffic left them. The impairers were installed by
        // apply_impairments() before replay; a stamp for a link with no
        // impairer means the campaign configs diverged.
        for (const auto& st : last.state.rng) {
            if (st.device != global_dev())
                throw std::runtime_error(
                    "campaign journal: rng stamp for another device");
            sim::Link* link = st.link == "wan"   ? s.wan_link.get()
                              : st.link == "lan" ? s.lan_link.get()
                                                 : nullptr;
            if (link == nullptr || (st.dir != "a2b" && st.dir != "b2a"))
                throw std::runtime_error(
                    "campaign journal: malformed rng stamp (link '" +
                    st.link + "', dir '" + st.dir + "')");
            const auto side = st.dir == "a2b" ? sim::Link::Side::A
                                              : sim::Link::Side::B;
            if (!link->restore_impair_rng(side, st.seed, st.draws))
                throw std::runtime_error(
                    "campaign journal: rng stamp for an uninstalled "
                    "impairer (campaign impairments changed since the "
                    "journal was written)");
        }
        // Re-warm the ARP state the replayed traffic left behind: the
        // first unit resolves the client<->gateway and gateway<->server
        // pairs, and entries never expire. Without this the first live
        // unit pays ARP exchanges the uninterrupted run already paid,
        // shifting every later timestamp.
        s.client_if->arp_cache().insert(gw.lan_addr(), gw.lan_if().mac());
        gw.lan_if().arp_cache().insert(s.client_addr, s.client_if->mac());
        gw.wan_if().arp_cache().insert(s.server_addr, s.server_if->mac());
        s.server_if->arp_cache().insert(s.gw_wan_addr, gw.wan_if().mac());
        return last.t_end_ns;
    }

    void bind_instruments() {
        if (auto* o = tb.observability(); o && supervision_active()) {
            auto& reg = o->metrics();
            m_retry = reg.counter("unit.retry", {{"device", label()}});
            m_degraded = reg.counter("unit.degraded", {{"device", label()}});
            m_quarantined =
                reg.counter("device.quarantined", {{"device", label()}});
        }
    }

    void next_unit() {
        if (++unit_idx >= plan.size()) {
            finished = true;
            return;
        }
        start_unit();
    }

    void start_unit() {
        if (device_quarantined) {
            // Skipped wholesale; recorded and journaled so a resumed
            // campaign replays the same verdict.
            const std::int64_t now_ns = loop().now().count();
            UnitReport rep{unit(),  UnitStatus::Quarantined,
                           0,       "device_quarantined",
                           now_ns,  now_ns};
            result.units.push_back(rep);
            journal_unit(rep);
            if (config.profiler != nullptr) {
                config.profiler->begin_unit(); // zero-length span
                config.profiler->end_unit(label(), rep.unit,
                                          to_string(rep.status), 0, now_ns,
                                          now_ns);
            }
            next_unit(); // recursion bounded by the plan length
            return;
        }
        unit_start = loop().now();
        attack_snap = attack_counters();
        attempts = 1;
        hard_hit = false;
        unit_done = false;
        hard_ev = sim::EventId{};
        if (config.profiler != nullptr) config.profiler->begin_unit();
        launch_attempt();
    }

    void launch_attempt() {
        const std::uint64_t g = ++gen;
        cancel = std::make_shared<bool>(false);
        const auto& sup = config.supervisor;
        if (sup.soft_enabled() && attempts < sup.max_attempts) {
            soft_ev = loop().after(
                sup.soft_deadline,
                [this, g, self = shared_from_this()] { on_soft(g); });
        }
        if (sup.hard_enabled() && !hard_hit && !hard_ev) {
            // One hard budget per unit, spanning soft retries.
            hard_ev = loop().at(
                unit_start + sup.hard_deadline,
                [this, self = shared_from_this()] { on_hard(); });
        }
        dispatch(g);
    }

    void complete(std::uint64_t g, const UnitStore& store) {
        if (g != gen || unit_done) return; // superseded or force-advanced
        store(result);
        if (hard_hit)
            finish_unit(UnitStatus::Degraded, "hard_deadline");
        else
            finish_unit(UnitStatus::Ok, "");
    }

    AttackSnap attack_counters() {
        auto& nat = slot().gw->nat();
        const auto& st = nat.stats();
        AttackSnap s;
        s.icmp_hostile =
            st.icmp_rate_limited + st.icmp_quote_rejected + st.icmp_teardowns;
        s.wan_syn =
            st.wan_syn_dropped + st.wan_syn_tarpitted + st.wan_stray_dropped;
        s.budget = nat.udp_table().host_budget_refusals() +
                   nat.tcp_table().host_budget_refusals();
        return s;
    }

    /// ";attack=<comma-list>" naming the hardening counter groups that
    /// moved during this unit, or empty. Journal replay copies the
    /// composite reason verbatim, so resumed campaigns keep the verdict.
    std::string attack_annotation() {
        const AttackSnap now = attack_counters();
        std::string list;
        const auto add = [&list](const char* name) {
            if (!list.empty()) list += ',';
            list += name;
        };
        if (now.icmp_hostile > attack_snap.icmp_hostile)
            add("icmp_error_flood");
        if (now.wan_syn > attack_snap.wan_syn) add("wan_syn_flood");
        if (now.budget > attack_snap.budget) add("binding_budget_pressure");
        return list.empty() ? std::string{} : ";attack=" + list;
    }

    void finish_unit(UnitStatus status, std::string reason) {
        unit_done = true;
        if (status != UnitStatus::Ok) reason += attack_annotation();
        if (soft_ev) loop().cancel(soft_ev);
        if (hard_ev) loop().cancel(hard_ev);
        if (force_ev) loop().cancel(force_ev);
        soft_ev = hard_ev = force_ev = sim::EventId{};
        if (status == UnitStatus::Degraded) obs::inc(m_degraded);
        UnitReport rep{unit(),    status,
                       attempts,  std::move(reason),
                       unit_start.count(), loop().now().count()};
        result.units.push_back(rep);
        journal_unit(rep);
        if (config.profiler != nullptr)
            config.profiler->end_unit(label(), rep.unit,
                                      to_string(rep.status), rep.attempts,
                                      rep.t_start_ns, rep.t_end_ns);
        note_unit_outcome(status);
        next_unit();
    }

    /// Shared by live completion and journal replay: quarantine counting
    /// must evolve identically in both, or a resumed campaign would run
    /// units the original would have skipped.
    void note_unit_outcome(UnitStatus status) {
        if (status == UnitStatus::Ok) {
            device_failures = 0;
            return;
        }
        ++device_failures;
        const auto& sup = config.supervisor;
        if (sup.quarantine_after > 0 &&
            device_failures >= sup.quarantine_after && !device_quarantined) {
            device_quarantined = true;
            obs::inc(m_quarantined);
            if (auto* o = tb.observability())
                o->tracer().trigger(label(), "device.quarantined");
        }
    }

    void on_soft(std::uint64_t g) {
        if (g != gen || unit_done) return;
        soft_ev = sim::EventId{};
        *cancel = true; // the attempt quiesces at its next trial boundary
        ++gen;          // and its eventual completion is dropped
        ++attempts;
        obs::inc(m_retry);
        if (auto* o = tb.observability())
            o->tracer().trigger(label(), "unit.soft_deadline");
        loop().after(config.supervisor.retry_backoff,
                     [this, self = shared_from_this()] {
                         if (unit_done) return; // hard deadline ended it
                         launch_attempt();
                     });
    }

    void on_hard() {
        if (unit_done) return;
        hard_ev = sim::EventId{};
        hard_hit = true;
        if (cancel) *cancel = true; // salvage partial results if possible
        if (auto* o = tb.observability())
            o->tracer().trigger(label(), "unit.hard_deadline");
        // A unit that cannot even deliver partial results within the
        // grace window is abandoned — this is what un-wedges a campaign
        // whose probe no longer schedules any events.
        force_ev = loop().after(
            config.supervisor.hard_grace,
            [this, self = shared_from_this()] {
                if (unit_done) return;
                ++gen; // drop any completion that limps in later
                finish_unit(UnitStatus::GaveUp, "hard_deadline");
            });
    }

    /// Append the unit's entry when journaling. The payload is built
    /// only here, so an unjournaled campaign never serializes one; a
    /// quarantined unit measured nothing and journals null.
    void journal_unit(const UnitReport& rep) {
        if (!journaling) return;
        report::JournalEntry e;
        e.device = global_dev();
        e.tag = result.tag;
        e.unit = rep.unit;
        e.status = to_string(rep.status);
        e.attempts = rep.attempts;
        e.reason = rep.reason;
        e.t_start_ns = rep.t_start_ns;
        e.t_end_ns = rep.t_end_ns;
        e.state.client_eph = tb.client().ephemeral_cursor();
        e.state.server_eph = tb.server().ephemeral_cursor();
        auto& s = slot();
        auto& gw = *s.gw;
        e.state.udp_pool = gw.nat().udp_table().pool_cursor();
        e.state.tcp_pool = gw.nat().tcp_table().pool_cursor();
        // Stamp the device's impairment RNG streams.
        auto stamp = [&](sim::Link& link, const char* lname,
                         sim::Link::Side side, const char* dname) {
            std::uint64_t seed = 0, draws = 0;
            if (link.impair_rng_state(side, seed, draws))
                e.state.rng.push_back(
                    {global_dev(), lname, dname, seed, draws});
        };
        stamp(*s.wan_link, "wan", sim::Link::Side::A, "a2b");
        stamp(*s.wan_link, "wan", sim::Link::Side::B, "b2a");
        stamp(*s.lan_link, "lan", sim::Link::Side::A, "a2b");
        stamp(*s.lan_link, "lan", sim::Link::Side::B, "b2a");
        const std::string payload =
            rep.status == UnitStatus::Quarantined
                ? "null"
                : unit_payload_json(result, rep.unit);
        if (!journal.append(e, payload))
            throw std::runtime_error(
                "campaign journal: write failed for '" +
                config.supervisor.journal_path + "'");
    }

    void dispatch(std::uint64_t g) {
        launch_unit(unit(), tb, kSlot, config, cancel,
                    [self = shared_from_this(), g](const UnitStore& store) {
                        self->complete(g, store);
                    });
    }
};

std::vector<DeviceResults>
Testrund::run_blocking(const CampaignConfig& config) {
    if (tb_.device_count() != 1)
        throw std::invalid_argument(
            "Testrund measures exactly one device (testbed holds " +
            std::to_string(tb_.device_count()) +
            "); run a multi-device campaign through ShardScheduler");
    const ShardSpec& shard = config.shard;
    if (shard.first_device != 0 ||
        (shard.last_device != 0 && shard.last_device != -1))
        throw std::invalid_argument(
            "Testrund measures testbed slot 0 only (ShardSpec "
            "first_device must be 0, last_device 0 or -1)");
    if (!tb_.all_ready()) tb_.start_and_wait();
    auto runner = std::make_shared<Runner>(tb_, config);
    runner->start();
    tb_.loop().run();
    GK_ENSURES(runner->finished);
    std::vector<DeviceResults> out;
    out.push_back(std::move(runner->result));
    return out;
}

std::string ShardScheduler::segment_path(const std::string& path,
                                         int shard) {
    return path + ".shard" + std::to_string(shard);
}

namespace {

bool file_exists(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return f.good();
}

/// Fixed-size copy chunk for every streaming merge. Nothing in the
/// merge path may allocate proportionally to a segment or journal.
constexpr std::size_t kMergeChunk = 64 * 1024;

/// Streaming segment concatenator shared by the incremental journal and
/// trace merges. Appends segments one by one in fixed-size chunks,
/// deleting each segment only after its bytes are flushed to the merged
/// file — so a kill at any instant leaves either the segment (resumable
/// state) or its merged copy on disk, never neither.
class SegmentMerger {
public:
    /// Journal mode: `header_line` is written first and every segment's
    /// own header line is validated against `fingerprint`, then
    /// skipped. Trace mode (empty header_line): raw concatenation.
    SegmentMerger(std::string path, const std::string& header_line,
                  std::string fingerprint)
        : path_(std::move(path)), fingerprint_(std::move(fingerprint)),
          journal_mode_(!header_line.empty()) {
        out_.open(path_, std::ios::binary | std::ios::trunc);
        if (!out_.good())
            throw std::runtime_error(
                "shard scheduler: cannot write merged file '" + path_ +
                "'");
        if (journal_mode_) {
            out_ << header_line << '\n';
            note_buffer(header_line.size());
        }
    }

    void append_segment(const std::string& seg) {
        std::ifstream in(seg, std::ios::binary);
        if (!in.good())
            throw std::runtime_error(
                "shard scheduler: missing segment '" + seg + "'");
        if (journal_mode_) {
            std::string line;
            if (!std::getline(in, line) || line.empty())
                throw std::runtime_error("shard scheduler: segment '" +
                                         seg + "' is empty");
            note_buffer(line.size());
            std::string err;
            auto v = report::json_parse(line, &err);
            report::JournalHeader header;
            if (!v || !report::decode_journal_header(*v, header, &err))
                throw std::runtime_error("shard scheduler: segment '" +
                                         seg + "': " + err);
            if (header.fingerprint != fingerprint_)
                throw std::runtime_error(
                    "shard scheduler: segment '" + seg +
                    "' fingerprint differs from the campaign (segments "
                    "from different campaigns?)");
        }
        char buf[kMergeChunk];
        note_buffer(sizeof buf);
        while (in.read(buf, sizeof buf) || in.gcount() > 0) {
            out_.write(buf, in.gcount());
            stats_.bytes += static_cast<std::uint64_t>(in.gcount());
        }
        out_.flush();
        if (!out_.good())
            throw std::runtime_error(
                "shard scheduler: write failed for merged file '" + path_ +
                "'");
        in.close();
        std::remove(seg.c_str());
        ++stats_.segments;
    }

    void finish() {
        out_.flush();
        out_.close();
        if (out_.fail())
            throw std::runtime_error(
                "shard scheduler: cannot finalize merged file '" + path_ +
                "'");
    }

    const ShardScheduler::MergeStats& stats() const { return stats_; }

private:
    void note_buffer(std::size_t n) {
        stats_.peak_buffer_bytes = std::max(stats_.peak_buffer_bytes, n);
    }

    std::string path_;
    std::string fingerprint_;
    bool journal_mode_;
    std::ofstream out_;
    ShardScheduler::MergeStats stats_;
};

/// Carve every shard in `need` out of a merged journal in ONE streaming
/// pass. Entry lines are copied verbatim — merging is a byte-level
/// concatenation, so carve + re-merge round-trips exactly — and each
/// segment gets a fresh header naming its own device with the shard
/// index added. Segments are written to "<seg>.tmp" and renamed whole,
/// so a kill mid-carve never leaves a truncated segment shadowing the
/// still-intact merged journal. Only devices with at least one entry
/// get a segment (their shard resumes from it; entry-less shards start
/// fresh, which is the same outcome with one less file). Sets
/// seg_resume[k]=1 for every segment produced.
void carve_all_segments(const std::string& merged_path,
                        const std::string& journal_path,
                        const std::vector<char>& need,
                        std::vector<char>& seg_resume) {
    std::ifstream in(merged_path, std::ios::binary);
    if (!in.good())
        throw std::runtime_error("shard scheduler: cannot open journal '" +
                                 merged_path + "'");
    report::JournalHeader merged_header;
    std::ofstream out;
    std::string open_tmp, open_seg;
    int open_dev = -1, prev_dev = -1;
    bool have_header = false;
    std::string line;
    std::size_t lineno = 0;

    auto close_open_segment = [&] {
        if (open_dev < 0) return;
        out.flush();
        if (!out.good())
            throw std::runtime_error(
                "shard scheduler: write failed for segment '" + open_seg +
                "'");
        out.close();
        if (std::rename(open_tmp.c_str(), open_seg.c_str()) != 0)
            throw std::runtime_error(
                "shard scheduler: cannot finalize segment '" + open_seg +
                "'");
        seg_resume[static_cast<std::size_t>(open_dev)] = 1;
        open_dev = -1;
    };

    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        std::string err;
        auto v = report::json_parse(line, &err);
        if (!v) {
            // A torn final line is the legitimate residue of a kill
            // mid-append; anything malformed earlier is corruption.
            if (in.peek() == std::char_traits<char>::eof()) break;
            throw std::runtime_error(
                "shard scheduler: journal '" + merged_path + "' line " +
                std::to_string(lineno) + ": " + err);
        }
        if (!have_header) {
            if (!report::decode_journal_header(*v, merged_header, &err))
                throw std::runtime_error("shard scheduler: journal '" +
                                         merged_path + "': " + err);
            if (merged_header.devices.size() != need.size())
                throw std::runtime_error(
                    "shard scheduler: journal '" + merged_path +
                    "': device roster mismatch");
            have_header = true;
            continue;
        }
        const report::JsonValue* d = v->find("device");
        if (d == nullptr)
            throw std::runtime_error(
                "shard scheduler: journal '" + merged_path + "' line " +
                std::to_string(lineno) + ": entry lacks device");
        const int dev = static_cast<int>(d->as_int(-1));
        if (dev < 0 ||
            dev >= static_cast<int>(merged_header.devices.size()))
            throw std::runtime_error(
                "shard scheduler: journal '" + merged_path + "' line " +
                std::to_string(lineno) + ": device out of roster");
        if (dev < prev_dev)
            throw std::runtime_error(
                "shard scheduler: journal '" + merged_path +
                "' entries out of device order (not a merged journal?)");
        prev_dev = dev;
        if (!need[static_cast<std::size_t>(dev)]) continue;
        if (dev != open_dev) {
            close_open_segment();
            open_seg = ShardScheduler::segment_path(journal_path, dev);
            open_tmp = open_seg + ".tmp";
            out.open(open_tmp, std::ios::binary | std::ios::trunc);
            if (!out.good())
                throw std::runtime_error(
                    "shard scheduler: cannot create segment '" + open_seg +
                    "'");
            report::JournalHeader header = merged_header;
            header.shard = dev;
            header.devices = {
                merged_header.devices[static_cast<std::size_t>(dev)]};
            out << report::journal_header_line(header) << '\n';
            open_dev = dev;
        }
        out << line << '\n';
    }
    if (!have_header)
        throw std::runtime_error("shard scheduler: journal '" +
                                 merged_path + "' is empty");
    close_open_segment();
}

} // namespace

void ShardScheduler::merge_segments(const std::string& path, int n_shards,
                                    const std::string& header_line,
                                    const std::string& fingerprint,
                                    MergeStats* stats) {
    SegmentMerger merger(path, header_line, fingerprint);
    for (int k = 0; k < n_shards; ++k)
        merger.append_segment(segment_path(path, k));
    merger.finish();
    if (stats != nullptr) *stats = merger.stats();
}

void ShardScheduler::merge_traces(const std::string& path, int n_segments,
                                  MergeStats* stats) {
    SegmentMerger merger(path, "", "");
    for (int k = 0; k < n_segments; ++k)
        merger.append_segment(segment_path(path, k));
    merger.finish();
    if (stats != nullptr) *stats = merger.stats();
}

ShardScheduler::Output ShardScheduler::run(const Options& opts) {
    const int n = static_cast<int>(opts.roster.size());
    Output out;
    if (opts.metrics) out.metrics = std::make_unique<obs::MetricsRegistry>();
    if (n == 0) return out;

    // Campaign identity, computed exactly once: the fingerprint hashes
    // every roster profile's full knob identity (not just its tag), so a
    // sampled roster binds its journal to the (seed, count) that built
    // it, and every shard receives the precomputed value instead of
    // re-hashing a 10k-profile roster 10k times.
    std::vector<std::string> ids;
    ids.reserve(opts.roster.size());
    for (const auto& p : opts.roster)
        ids.push_back(gateway::profile_identity(p));
    const std::string fingerprint = campaign_fingerprint(opts.config, ids);
    ids.clear();
    ids.shrink_to_fit();
    std::string merged_header_line;
    if (!opts.journal_path.empty()) {
        report::JournalHeader mh;
        mh.schema = report::kJournalSchema;
        mh.fingerprint = fingerprint;
        for (const auto& p : opts.roster) mh.devices.push_back(p.tag);
        mh.shard = -1;
        merged_header_line = report::journal_header_line(mh);
    }

    // Resume preparation runs serially before any worker spawns: shard k
    // resumes from its own segment when present, else from its device's
    // entries carved out of a previously merged journal (written at any
    // worker count), else starts fresh — a killed campaign legitimately
    // leaves later shards with no segment at all. The merged journal is consumed by the
    // carve and deleted: the incremental merge below rebuilds it from
    // scratch as the completion frontier advances, and when a segment
    // and the merged journal both cover a shard (a kill between segment
    // flush and segment delete), the segment wins.
    std::vector<char> seg_resume(static_cast<std::size_t>(n), 0);
    if (!opts.journal_path.empty() && opts.resume) {
        std::vector<char> need(static_cast<std::size_t>(n), 0);
        bool any_need = false;
        for (int k = 0; k < n; ++k) {
            const std::string seg = segment_path(opts.journal_path, k);
            if (file_exists(seg)) {
                seg_resume[static_cast<std::size_t>(k)] = 1;
            } else {
                need[static_cast<std::size_t>(k)] = 1;
                any_need = true;
            }
        }
        if (file_exists(opts.journal_path)) {
            if (any_need)
                carve_all_segments(opts.journal_path, opts.journal_path,
                                   need, seg_resume);
            std::remove(opts.journal_path.c_str());
        }
    }

    // Per-shard completion state, merged in canonical device order by a
    // frontier that advances as shards finish: results stream out (or
    // accumulate), metrics merge, and journal/trace segments append to
    // the merged files — then the state is dropped. Out-of-order
    // completions wait in `pending`, whose size the backlog bound below
    // keeps O(workers), so memory stays flat however large the roster.
    struct Pending {
        std::vector<DeviceResults> results;
        std::unique_ptr<obs::MetricsRegistry> metrics;
        std::vector<obs::ProfileSpan> spans;
        std::string device_label;
        std::int64_t wall_ns = 0;
        int worker = 0;
        std::uint64_t flight_dumps = 0;
    };
    std::mutex m;
    std::condition_variable cv;
    std::map<int, Pending> pending;
    std::map<int, std::exception_ptr> errors;
    int frontier = 0;
    std::optional<SegmentMerger> jmerge, tmerge, tsmerge;
    if (!opts.journal_path.empty())
        jmerge.emplace(opts.journal_path, merged_header_line, fingerprint);
    if (!opts.trace_path.empty())
        tmerge.emplace(opts.trace_path, "", "");
    if (!opts.timeseries_path.empty())
        tsmerge.emplace(opts.timeseries_path, "", "");
    // Flight-recorder dumps stay per-shard files (each is a complete
    // trace window); the manifest lists them in canonical device order
    // so a reader walks dumps in the same order at any worker count.
    std::ofstream flight_manifest;
    if (!opts.trace_path.empty()) {
        flight_manifest.open(opts.trace_path + ".flight.manifest",
                             std::ios::binary | std::ios::trunc);
        if (!flight_manifest)
            throw std::runtime_error(
                "shard scheduler: cannot open flight manifest '" +
                opts.trace_path + ".flight.manifest'");
    }
    const int clamped_workers =
        std::clamp(opts.workers, 1, std::max(n, 1));
    std::ofstream profile_out;
    std::optional<obs::ProfileWriter> pwrite;
    std::vector<std::int64_t> worker_busy_ns(
        static_cast<std::size_t>(clamped_workers), 0);
    if (!opts.profile_path.empty()) {
        profile_out.open(opts.profile_path,
                         std::ios::binary | std::ios::trunc);
        if (!profile_out)
            throw std::runtime_error(
                "shard scheduler: cannot open profile sidecar '" +
                opts.profile_path + "'");
        pwrite.emplace(profile_out, clamped_workers, n);
    }
    const auto campaign_wall_start = std::chrono::steady_clock::now();

    auto run_shard = [&](int k, int worker_id) {
        Pending cell;
        cell.worker = worker_id;
        const auto shard_wall_start = std::chrono::steady_clock::now();
        sim::EventLoop loop;
        // obs before the testbed: components keep raw instrument
        // pointers, so the registry must outlive them.
        std::unique_ptr<obs::Observability> obs;
        std::unique_ptr<obs::JsonlSink> sink;
        std::unique_ptr<obs::FlightRecorder> recorder;
        if (opts.metrics || !opts.trace_path.empty() ||
            !opts.timeseries_path.empty())
            obs = std::make_unique<obs::Observability>(loop);
        if (!opts.trace_path.empty()) {
            const std::string seg = segment_path(opts.trace_path, k);
            sink = std::make_unique<obs::JsonlSink>(seg);
            if (!sink->ok())
                throw std::runtime_error(
                    "shard scheduler: cannot open trace segment '" + seg +
                    "'");
            recorder = std::make_unique<obs::FlightRecorder>();
            recorder->set_dump_path(seg + ".flight");
            obs->tracer().add_sink(recorder.get());
            obs->tracer().add_sink(sink.get());
        }
        // One-device testbed under the device's GLOBAL roster number:
        // addressing, VLANs, MACs, and the journal/RNG indices all match
        // the device's slice of a full-roster campaign, while bring-up
        // work across all shards stays linear in the roster instead of
        // quadratic.
        Testbed tb(loop);
        tb.add_device(opts.roster[static_cast<std::size_t>(k)], k + 1);
        if (obs) tb.attach_observability(obs.get());
        cell.device_label = Testbed::device_label(tb.slot(0));
        // Time-series sampler: installed before bring-up so the stream
        // covers the whole shard, sampling on sim-time boundaries via
        // the loop's advance hook (never scheduling events — the sim's
        // behavior is identical with the sampler on or off).
        std::ofstream ts_out;
        std::unique_ptr<obs::TimeseriesSampler> ts;
        if (!opts.timeseries_path.empty()) {
            const std::string seg = segment_path(opts.timeseries_path, k);
            ts_out.open(seg, std::ios::binary | std::ios::trunc);
            if (!ts_out)
                throw std::runtime_error(
                    "shard scheduler: cannot open timeseries segment '" +
                    seg + "'");
            obs::TimeseriesSampler::Options tso;
            tso.interval = opts.timeseries_interval;
            tso.device = cell.device_label;
            tso.shard = k;
            ts = std::make_unique<obs::TimeseriesSampler>(obs->metrics(),
                                                          ts_out, tso);
            loop.set_advance_hook(ts.get());
        }
        tb.start_and_wait();

        obs::ProfileCollector prof;
        CampaignConfig cfg = opts.config;
        if (!opts.profile_path.empty()) cfg.profiler = &prof;
        cfg.shard.index = k;
        cfg.shard.first_device = 0;
        cfg.shard.last_device = 0;
        cfg.shard.device_base = k;
        cfg.shard.fingerprint = fingerprint;
        if (!opts.journal_path.empty()) {
            cfg.supervisor.journal_path =
                segment_path(opts.journal_path, k);
            cfg.supervisor.resume =
                seg_resume[static_cast<std::size_t>(k)] != 0;
        } else {
            cfg.supervisor.journal_path.clear();
            cfg.supervisor.resume = false;
        }
        Testrund rund(tb);
        cell.results = rund.run_blocking(cfg);
        if (ts) {
            loop.set_advance_hook(nullptr);
            ts->finish(loop.now());
            ts_out.flush();
            if (!ts_out)
                throw std::runtime_error(
                    "shard scheduler: timeseries segment write failed");
        }
        if (recorder) cell.flight_dumps = recorder->dumps_written();
        cell.spans = prof.take_spans();
        cell.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() -
                           shard_wall_start)
                           .count();

        if (opts.metrics) {
            // A one-device shard's registry holds only its own device's
            // and host-level series, so it merges whole — the old
            // own-device filter existed to discard the other 33 devices'
            // bring-up, which no longer happens.
            cell.metrics = std::make_unique<obs::MetricsRegistry>();
            cell.metrics->merge_from(obs->metrics());
        }
        if (opts.verbose) {
            static std::mutex io_mutex;
            const std::lock_guard<std::mutex> lock(io_mutex);
            std::cerr << "[gatekit] shard " << (k + 1) << "/" << n << " ("
                      << opts.roster[static_cast<std::size_t>(k)].tag
                      << ") done\n";
        }
        return cell;
    };

    // Fold every pending shard at the frontier into the merged outputs.
    // Caller holds the lock. Merging stops (permanently) at the first
    // errored shard: the merged journal stays a valid prefix and later
    // completed shards keep their segments — exactly the on-disk state a
    // resume consumes.
    auto advance_frontier = [&] {
        while (frontier < n && errors.count(frontier) == 0) {
            auto it = pending.find(frontier);
            if (it == pending.end()) break;
            Pending& cell = it->second;
            if (opts.on_result) {
                for (auto& r : cell.results)
                    opts.on_result(frontier, std::move(r));
            } else {
                for (auto& r : cell.results)
                    out.results.push_back(std::move(r));
            }
            if (out.metrics && cell.metrics)
                out.metrics->merge_from(*cell.metrics);
            if (jmerge)
                jmerge->append_segment(
                    segment_path(opts.journal_path, frontier));
            if (tmerge) {
                tmerge->append_segment(
                    segment_path(opts.trace_path, frontier));
                const std::string base =
                    segment_path(opts.trace_path, frontier) + ".flight";
                for (std::uint64_t i = 0; i < cell.flight_dumps; ++i)
                    flight_manifest << base << '.' << i << ".jsonl\n";
            }
            if (tsmerge)
                tsmerge->append_segment(
                    segment_path(opts.timeseries_path, frontier));
            if (pwrite) {
                pwrite->write_shard(frontier, cell.device_label,
                                    cell.worker, cell.wall_ns, cell.spans);
                worker_busy_ns[static_cast<std::size_t>(cell.worker)] +=
                    cell.wall_ns;
            }
            pending.erase(it);
            ++frontier;
        }
    };

    // Backlog bound: a worker may run ahead of the merge frontier by at
    // most this many shards before it waits. The worker holding the
    // smallest unfinished shard never waits (everything below it is
    // merged), so the bound cannot deadlock; it exists purely to cap
    // how many completed-but-unmerged results sit in memory when shard
    // durations are skewed.
    const int workers = clamped_workers;
    const int backlog_limit = workers * 4 + 16;

    std::atomic<int> next{0};
    auto worker_fn = [&](int worker_id) {
        for (int k; (k = next.fetch_add(1)) < n;) {
            {
                std::unique_lock<std::mutex> lk(m);
                cv.wait(lk, [&] {
                    return !errors.empty() ||
                           k - frontier <= backlog_limit;
                });
            }
            Pending cell;
            std::exception_ptr error;
            try {
                cell = run_shard(k, worker_id);
            } catch (...) {
                error = std::current_exception();
            }
            {
                std::unique_lock<std::mutex> lk(m);
                if (error) {
                    errors.emplace(k, error);
                } else {
                    pending.emplace(k, std::move(cell));
                    try {
                        advance_frontier();
                    } catch (...) {
                        errors.emplace(frontier,
                                       std::current_exception());
                    }
                }
                cv.notify_all();
            }
        }
    };
    if (workers == 1) {
        worker_fn(0); // no threads: byte-identical output, zero overhead
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&worker_fn, w] { worker_fn(w); });
        for (auto& t : pool) t.join();
    }
    if (!errors.empty()) std::rethrow_exception(errors.begin()->second);
    GK_ENSURES(frontier == n && pending.empty());
    if (jmerge) jmerge->finish();
    if (tmerge) {
        tmerge->finish();
        flight_manifest.flush();
        if (!flight_manifest)
            throw std::runtime_error(
                "shard scheduler: flight manifest write failed");
    }
    if (tsmerge) tsmerge->finish();
    if (pwrite) {
        pwrite->write_summary(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - campaign_wall_start)
                .count(),
            worker_busy_ns);
        profile_out.flush();
    }
    return out;
}

} // namespace gatekit::harness
