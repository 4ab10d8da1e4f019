#include "harness/testrund.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
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
    // splitmix64 finalizer over campaign_seed xor the stream tag, masked
    // to 62 bits.
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
               config.supervisor.hard_enabled();
    }

    /// The device's global roster index; its impairment RNG streams
    /// derive from it.
    int global_dev() const { return config.shard.device_base; }

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

    void start() {
        apply_impairments(); // before any measurement traffic
        result.tag = slot().gw->profile().tag;
        if (plan.empty()) {
            finished = true; // nothing to measure
            return;
        }
        bind_instruments();
        start_unit();
    }

    void bind_instruments() {
        if (auto* o = tb.observability(); o && supervision_active()) {
            auto& reg = o->metrics();
            const auto labels = reg.label_set({{"device", label()}});
            m_retry = reg.counter("unit.retry", labels);
            m_degraded = reg.counter("unit.degraded", labels);
            m_quarantined = reg.counter("device.quarantined", labels);
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
            // Skipped wholesale, but still recorded.
            const std::int64_t now_ns = loop().now().count();
            UnitReport rep{unit(),  UnitStatus::Quarantined,
                           0,       "device_quarantined",
                           now_ns,  now_ns};
            result.units.push_back(rep);
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
    /// moved during this unit, or empty.
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
        if (config.profiler != nullptr)
            config.profiler->end_unit(label(), rep.unit,
                                      to_string(rep.status), rep.attempts,
                                      rep.t_start_ns, rep.t_end_ns);
        note_unit_outcome(status);
        next_unit();
    }

    /// Quarantine counting: consecutive non-ok units quarantine the
    /// device once they reach the policy's threshold.
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

namespace {

/// A merged sidecar, opened before any worker starts.
void open_sidecar(std::ofstream& out, const std::string& path,
                  const char* what) {
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("shard scheduler: cannot open " +
                                 std::string(what) + " '" + path + "'");
}

/// Throws when a write to a merged sidecar at the frontier failed.
void check_sidecar(const std::ofstream& out, const std::string& path) {
    if (!out)
        throw std::runtime_error("shard scheduler: write failed for '" +
                                 path + "'");
}

void close_sidecar(std::ofstream& out, const std::string& path) {
    if (!out.is_open()) return;
    out.close();
    if (out.fail())
        throw std::runtime_error("shard scheduler: cannot finalize '" +
                                 path + "'");
}

/// Device k's flight-recorder dumps land at `<base>.<n>.jsonl`.
std::string flight_base(const std::string& trace_path, int device) {
    return trace_path + ".shard" + std::to_string(device) + ".flight";
}

} // namespace

ShardScheduler::Output ShardScheduler::run(const Options& opts) {
    const int n = static_cast<int>(opts.roster.size());
    Output out;
    if (opts.metrics) out.metrics = std::make_unique<obs::MetricsRegistry>();
    if (n == 0) return out;

    // Hands one device's results over, in canonical device order.
    auto emit = [&](int device, DeviceResults&& r) {
        if (opts.on_result)
            opts.on_result(device, std::move(r));
        else
            out.results.push_back(std::move(r));
    };

    // The journal, opened before any worker spawns. On resume its
    // records are devices 0..restored-1, so their results are handed out
    // here, with no bring-up, and the workers start at device
    // `restored`. The file is then rewritten to its kept prefix, which
    // drops a torn final line.
    const bool journaling = !opts.journal_path.empty();
    report::JournalWriter journal;
    int restored = 0;
    if (journaling) {
        // The fingerprint hashes every roster profile's full knob
        // identity (not just its tag), so a sampled roster binds its
        // journal to the (seed, count) that built it.
        report::JournalHeader header;
        std::vector<std::string> ids;
        ids.reserve(opts.roster.size());
        for (const auto& p : opts.roster) {
            ids.push_back(gateway::profile_identity(p));
            header.devices.push_back(p.tag);
        }
        header.fingerprint = campaign_fingerprint(opts.config, ids);
        std::string text = report::journal_header_line(header) + '\n';
        std::size_t keep = text.size();
        std::ifstream in;
        if (opts.resume) in.open(opts.journal_path, std::ios::binary);
        if (in.is_open()) {
            text.assign(std::istreambuf_iterator<char>(in), {});
            in.close();
            report::Journal on_disk;
            std::string err;
            if (!report::parse_journal(text, on_disk, &err))
                throw std::runtime_error("campaign journal: " + err);
            if (on_disk.header.fingerprint != header.fingerprint)
                throw std::runtime_error(
                    "campaign journal: fingerprint mismatch (campaign "
                    "config or roster changed since the journal was "
                    "written)");
            if (on_disk.header.devices != header.devices)
                throw std::runtime_error(
                    "campaign journal: device roster mismatch");
            for (const std::string_view line : on_disk.records) {
                DeviceResults r;
                const auto v = report::json_parse(line);
                if (!v || !device_results_from_json(*v->find("result"), r))
                    throw std::runtime_error(
                        "campaign journal: undecodable record for device " +
                        std::to_string(restored));
                emit(restored++, std::move(r));
            }
            keep = on_disk.kept_bytes;
        }
        if (!journal.open(opts.journal_path,
                          std::string_view(text).substr(0, keep)))
            throw std::runtime_error("campaign journal: cannot write '" +
                                     opts.journal_path + "'");
    }

    // Per-shard completion state, merged in canonical device order by a
    // frontier that advances as shards finish: journal records append,
    // results stream out (or accumulate), metrics merge, and the trace
    // and time-series buffers append to the merged files — then the
    // state is dropped.
    // Out-of-order completions wait in `pending`, whose size the backlog
    // bound below keeps O(workers), so memory stays flat however large
    // the roster.
    struct Pending {
        DeviceResults result;
        std::string record; ///< device_results_json, when journaling
        /// The shard's own observability, kept when metrics merge; the
        /// frontier reads only its registry.
        std::unique_ptr<obs::Observability> obs;
        std::vector<obs::ProfileSpan> spans;
        std::string trace; ///< the shard's trace JSONL
        obs::TimeseriesSegment timeseries; ///< the shard's samples
        std::string device_label;
        std::int64_t wall_ns = 0;
        int worker = 0;
        std::uint64_t flight_dumps = 0;
    };
    std::mutex m;
    std::condition_variable cv;
    std::map<int, Pending> pending;
    std::map<int, std::exception_ptr> errors;
    int frontier = restored;
    // Flight-recorder dumps stay per-shard files (each is a complete
    // trace window); the manifest lists them in canonical device order
    // so a reader walks dumps in the same order at any worker count.
    const std::string manifest_path = opts.trace_path + ".flight.manifest";
    std::ofstream trace_out, timeseries_out, flight_manifest;
    if (!opts.trace_path.empty()) {
        open_sidecar(trace_out, opts.trace_path, "merged trace");
        open_sidecar(flight_manifest, manifest_path, "flight manifest");
    }
    // The one renderer of the merged time series: it assigns stream-wide
    // series ids as the frontier hands it each shard's segment, in
    // canonical device order, so the ids and bytes are the same at any
    // worker count.
    std::optional<obs::TimeseriesWriter> timeseries;
    if (!opts.timeseries_path.empty()) {
        open_sidecar(timeseries_out, opts.timeseries_path,
                     "merged time series");
        timeseries.emplace(timeseries_out, opts.timeseries_interval);
    }
    const int clamped_workers =
        std::clamp(opts.workers, 1, std::max(n, 1));
    std::ofstream profile_out;
    std::optional<obs::ProfileWriter> pwrite;
    std::vector<std::int64_t> worker_busy_ns(
        static_cast<std::size_t>(clamped_workers), 0);
    if (!opts.profile_path.empty()) {
        open_sidecar(profile_out, opts.profile_path, "profile sidecar");
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
        std::ostringstream trace_buf;
        std::unique_ptr<obs::JsonlSink> sink;
        std::unique_ptr<obs::FlightRecorder> recorder;
        if (opts.metrics || !opts.trace_path.empty() ||
            !opts.timeseries_path.empty())
            obs = std::make_unique<obs::Observability>(loop);
        if (!opts.trace_path.empty()) {
            sink = std::make_unique<obs::JsonlSink>(trace_buf);
            recorder = std::make_unique<obs::FlightRecorder>();
            recorder->set_dump_path(flight_base(opts.trace_path, k));
            obs->tracer().add_sink(recorder.get());
            obs->tracer().add_sink(sink.get());
        }
        // One-device testbed under the device's GLOBAL roster number:
        // addressing, VLANs, MACs, and the RNG streams all match the
        // device's slice of a full-roster campaign, while bring-up
        // work across all shards stays linear in the roster instead of
        // quadratic.
        Testbed tb(loop);
        tb.add_device(opts.roster[static_cast<std::size_t>(k)], k + 1);
        if (obs) tb.attach_observability(obs.get());
        cell.device_label = Testbed::device_label(tb.slot(0));
        // Time-series recorder: installed before bring-up so the
        // segment covers the whole shard, sampling on sim-time
        // boundaries via the loop's advance hook (never scheduling
        // events — the sim's behavior is identical with it on or off).
        std::unique_ptr<obs::TimeseriesRecorder> ts;
        if (timeseries) {
            obs::TimeseriesOptions tso;
            tso.interval = opts.timeseries_interval;
            tso.device = cell.device_label;
            tso.shard = k;
            ts = std::make_unique<obs::TimeseriesRecorder>(obs->metrics(),
                                                           std::move(tso));
            loop.set_advance_hook(ts.get());
        }
        tb.start_and_wait();

        obs::ProfileCollector prof;
        CampaignConfig cfg = opts.config;
        if (!opts.profile_path.empty()) cfg.profiler = &prof;
        cfg.shard.first_device = 0;
        cfg.shard.last_device = 0;
        cfg.shard.device_base = k;
        Testrund rund(tb);
        cell.result = std::move(rund.run_blocking(cfg).front());
        if (journaling) cell.record = device_results_json(cell.result);
        if (ts) {
            loop.set_advance_hook(nullptr);
            ts->finish(loop.now());
            cell.timeseries = std::move(ts->segment());
        }
        if (sink) cell.trace = std::move(trace_buf).str();
        if (recorder) cell.flight_dumps = recorder->dumps_written();
        cell.spans = prof.take_spans();
        cell.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() -
                           shard_wall_start)
                           .count();

        // A one-device shard's registry holds only its own device's and
        // host-level series, so the frontier merges it whole, once.
        if (opts.metrics) cell.obs = std::move(obs);
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
    // errored shard: the journal holds exactly the devices before it,
    // and a resume reruns every later one.
    auto advance_frontier = [&] {
        while (frontier < n && errors.count(frontier) == 0) {
            auto it = pending.find(frontier);
            if (it == pending.end()) break;
            Pending& cell = it->second;
            if (journaling &&
                !journal.append(
                    frontier, opts.roster[static_cast<std::size_t>(frontier)].tag,
                    cell.record))
                throw std::runtime_error(
                    "campaign journal: write failed for '" +
                    opts.journal_path + "'");
            emit(frontier, std::move(cell.result));
            if (out.metrics && cell.obs)
                out.metrics->merge_from(cell.obs->metrics());
            if (trace_out.is_open()) {
                trace_out << cell.trace;
                check_sidecar(trace_out, opts.trace_path);
                const std::string base =
                    flight_base(opts.trace_path, frontier);
                for (std::uint64_t i = 0; i < cell.flight_dumps; ++i)
                    flight_manifest << base << '.' << i << ".jsonl\n";
            }
            if (timeseries) {
                timeseries->write(cell.timeseries);
                check_sidecar(timeseries_out, opts.timeseries_path);
            }
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

    std::atomic<int> next{restored};
    auto worker_fn = [&](int worker_id) {
        for (int k; (k = next.fetch_add(1)) < n;) {
            {
                std::unique_lock<std::mutex> lk(m);
                cv.wait(lk, [&] {
                    return !errors.empty() ||
                           k - frontier <= backlog_limit;
                });
                // The frontier never passes a failed shard, so a shard
                // above one could only wait in `pending` until run()
                // throws: stop taking shards instead.
                if (!errors.empty() && errors.begin()->first < k) return;
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
    close_sidecar(trace_out, opts.trace_path);
    close_sidecar(flight_manifest, manifest_path);
    close_sidecar(timeseries_out, opts.timeseries_path);
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
