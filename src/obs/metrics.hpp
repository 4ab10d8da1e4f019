// Metrics registry for the testbed: counters, gauges, and log-bucketed
// histograms registered by name + label pairs, snapshot-able to JSON and
// CSV. Lock-free by construction — everything runs on the single-threaded
// event loop, so instruments are plain structs with no atomics.
//
// Instrumented components hold raw pointers to instruments, defaulting to
// nullptr. The free helpers below (`inc`, `add`, `set`, `observe`) branch
// on null, so with no registry attached the cost of an instrumentation
// site is one predictable untaken branch.
//
// Counters and gauges also report their own writes: the first write
// after each MetricsRegistry::take_dirty puts the instrument's scalar id
// on its registry's dirty list, so the time-series sampler visits only
// what changed instead of every registered scalar.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gatekit::obs {

/// Write tracking for one counter or gauge. The owning registry sets
/// `dirty` and `id` and clears `queued`; a free-standing instrument keeps
/// `queued` true and never queues.
struct ChangeMark {
    std::vector<std::uint32_t>* dirty = nullptr; ///< owner's dirty list
    std::uint32_t id = 0;                        ///< scalar id in the owner
    bool queued = true; ///< on the dirty list since the last take_dirty

    void note() {
        if (!queued) queue();
    }
    void queue(); ///< out of line: taken once per id between boundaries
};

struct Counter {
    std::uint64_t value = 0;
    ChangeMark mark;
};

struct Gauge {
    double value = 0.0;
    ChangeMark mark;
};

/// Log2-bucketed histogram with linear sub-buckets (HDR style): no
/// pre-chosen bounds, bounded relative error, and exact cross-registry
/// merge. Values below 1 (and NaN) land in bucket 0; otherwise octave
/// e = floor(log2(v)) and a linear sub-bucket within the octave give
/// index 1 + e*kSubBuckets + sub, so every bucket's width is at most
/// 1/kSubBuckets of its lower edge (12.5% relative error at 8
/// sub-buckets). Observe in the series' natural fine unit (nanoseconds
/// for latencies, bytes for sizes) so bucket 0 stays a degenerate
/// "underflow" bin. Storage grows on demand to the highest octave seen;
/// merge is element-wise addition, hence associative and commutative.
struct LogHistogram {
    static constexpr int kSubBuckets = 8;
    static constexpr int kMaxOctave = 64; ///< values >= 2^64 clip here
    static constexpr std::size_t kBucketCount =
        1 + static_cast<std::size_t>(kMaxOctave) * kSubBuckets;

    /// Bucket index for a value; pure, total (NaN/negative -> 0).
    static std::size_t bucket_index(double v);
    /// Upper edge of a bucket — the deterministic representative value
    /// percentile extraction reports. bucket_upper(0) == 1.
    static double bucket_upper(std::size_t index);

    void observe(double v) {
        const std::size_t i = bucket_index(v);
        if (i >= counts.size()) counts.resize(i + 1, 0);
        ++counts[i];
        ++total;
        sum += v;
        if (total == 1 || v < min) min = v;
        if (total == 1 || v > max) max = v;
    }

    /// Element-wise fold of `other` into this histogram (exact).
    void merge(const LogHistogram& other);

    /// Value at quantile q in [0, 1]: the upper edge of the bucket
    /// holding the ceil(q * total)-th observation, clamped to the
    /// observed [min, max]. 0 when empty. Deterministic — depends only
    /// on the merged bucket counts, never on observation order.
    double percentile(double q) const;

    std::vector<std::uint64_t> counts; ///< grows to highest bucket seen
    std::uint64_t total = 0;
    double sum = 0.0;
    double min = 0.0; ///< meaningful only when total > 0
    double max = 0.0; ///< meaningful only when total > 0
};

// Null-safe instrumentation helpers: the disabled path is branch-on-null.
// They and MetricsRegistry::merge_from note each change for the
// time-series sampler, so write a sampled counter or gauge only through
// them: a direct store to `value` never reaches the stream.
inline void inc(Counter* c) {
    if (c) {
        ++c->value;
        c->mark.note();
    }
}
inline void add(Counter* c, std::uint64_t n) {
    if (c) {
        c->value += n;
        c->mark.note();
    }
}
inline void set(Gauge* g, double v) {
    if (g) {
        g->value = v;
        g->mark.note();
    }
}
inline void observe(LogHistogram* h, double v) {
    if (h) h->observe(v);
}

using Labels = std::vector<std::pair<std::string, std::string>>;

/// Render labels as the single "k=v;k=v" CSV cell to_csv uses. '\\',
/// '=', and ';' inside keys or values are backslash-escaped — without
/// that, a label value containing '=' or ';' (say a service string
/// "port=53;proto=udp") reads back as extra bogus pairs. The CSV layer
/// itself (commas, quotes, newlines) is handled by CsvWriter.
std::string format_label_cell(const Labels& labels);

/// Exact inverse of format_label_cell. False on a malformed cell (bare
/// pair with no '=', or a trailing backslash). An empty cell is the
/// empty label set.
bool parse_label_cell(std::string_view cell, Labels& out);

/// Registry of named instruments. Registration dedups on (name, labels):
/// asking twice for the same instrument returns the same pointer.
/// Pointers are stable for the registry's lifetime (each instrument is
/// its own heap allocation); counters and gauges point back at the
/// registry's dirty list, so a registry is neither copied nor moved.
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    Counter* counter(std::string_view name, Labels labels = {});
    Gauge* gauge(std::string_view name, Labels labels = {});
    LogHistogram* log_histogram(std::string_view name, Labels labels = {});

    /// Lookup without creating; nullptr when absent. Used by tests.
    const Counter* find_counter(std::string_view name,
                                const Labels& labels = {}) const;
    const Gauge* find_gauge(std::string_view name,
                            const Labels& labels = {}) const;
    const LogHistogram* find_log_histogram(std::string_view name,
                                           const Labels& labels = {}) const;

    /// Counter value by name+labels, 0 when the counter was never
    /// registered — convenient for test assertions.
    std::uint64_t counter_value(std::string_view name,
                                const Labels& labels = {}) const;

    /// Sum of all counters whose name matches, across label sets.
    std::uint64_t counter_total(std::string_view name) const;

    std::size_t size() const { return entries_.size(); }

    /// One counter or gauge. Exactly one of counter/gauge is non-null.
    struct ScalarRef {
        const std::string& name;
        const Labels& labels;
        const Counter* counter;
        const Gauge* gauge;
    };

    /// Counters and gauges get scalar ids 0, 1, ... in registration
    /// order (histograms take none). The order is append-only and
    /// merge_from preserves it, so ids are stable for the registry's
    /// lifetime; the time-series stream uses them as series ids.
    std::size_t scalar_count() const { return scalars_.size(); }
    ScalarRef scalar(std::uint32_t id) const;

    /// Move the ids of the counters and gauges written since the last
    /// call into `out` (each once, in first-write order) and re-arm
    /// them. A write that leaves the value as it was is still listed.
    /// One consumer per registry: the time-series sampler.
    void take_dirty(std::vector<std::uint32_t>& out);

    /// Fold another registry into this one: counters add, gauges take
    /// the other's value (last writer wins), log histograms merge
    /// exactly (LogHistogram::merge). Series unseen here are appended in
    /// `other`'s registration order, so merging shard registries in
    /// canonical device order yields one deterministic,
    /// worker-count-independent snapshot. Counters and gauges it writes
    /// are marked dirty like any other write.
    void merge_from(const MetricsRegistry& other);

    /// Snapshot as one JSON document (schema "gatekit.metrics.v1").
    std::string to_json() const;
    /// Snapshot as CSV rows:
    /// name,kind,labels,value,sum,count,p50,p90,p99,p999 — the
    /// percentile columns are filled for histogram kinds only.
    std::string to_csv() const;
    /// Write to_json() to `path`; false on I/O failure.
    bool save_json(const std::string& path) const;

private:
    enum class Kind { kCounter, kGauge, kLogHistogram };

    struct Entry {
        std::string name;
        Labels labels;
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<LogHistogram> log_histogram;
    };

    Entry& entry(std::string_view name, Labels labels, Kind kind);
    const Entry* find(std::string_view name, const Labels& labels,
                      Kind kind) const;
    ChangeMark& mark(std::uint32_t id);

    std::vector<std::unique_ptr<Entry>> entries_; ///< registration order
    std::vector<Entry*> scalars_; ///< counters and gauges by scalar id
    /// Keyed by key_of(name, labels): every string length-prefixed, so
    /// no name or label text can make two keys collide.
    std::unordered_map<std::string, Entry*> index_;
    std::string key_; ///< entry()'s reused key buffer
    std::vector<std::uint32_t> dirty_; ///< scalar ids written, each once
};

/// Schema check for a metrics sidecar produced by to_json(), made on the
/// parsed document: the schema tag is gatekit.metrics.v1, `metrics` is an
/// array, and every entry has a string `name` and a `kind` of counter,
/// gauge or log_histogram. Used by the telemetry_smoke ctest.
bool validate_metrics_json(std::string_view text, std::string* error = nullptr);

} // namespace gatekit::obs
