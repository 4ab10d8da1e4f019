// Streaming time-series sink: samples every counter and gauge in a
// MetricsRegistry on a sim-time cadence and writes JSONL (schema
// "gatekit.timeseries.v2"). Sampling is a sim::AdvanceHook — it observes
// the clock the loop was advancing anyway and never schedules events, so
// a campaign's virtual-time behavior (and every byte-gated artifact) is
// identical with the sampler on or off.
//
// Work, memory and output are bounded by what changes. Counters and
// gauges put their scalar id on the registry's dirty list at their first
// write after a boundary (MetricsRegistry::take_dirty), so a boundary
// visits only the series written since the last one, not every
// registered scalar. A series is recorded only when its value differs
// from the last one recorded, at most one line per crossed interval
// boundary, and nothing at all for boundaries where no value changed — a
// 24-hour idle binding-timeout gap costs zero lines, not 86,400.
//
// Stream layout (one JSON value per line):
//   {"schema":"gatekit.timeseries.v2","interval_ms":N}   stream header,
//                                                        once per file
//   {"device":"...","shard":k}                           segment header,
//                                                        once per shard
//   {"series":i,"name":"...","labels":{...},
//    "kind":"counter"|"gauge"}                           declaration,
//                                                        before first use
//   [dt,i,v,i,v,...]                                     sample at a
//                                                        boundary
//   {"end_ns":t,"v":[i,v,...]}                           end-of-run flush
// A sample's stamp is in interval ticks: dt counts intervals since the
// segment's previous sample (since t=0 for its first), so the sample is
// at tick * interval_ms. The end-of-run flush is not on a boundary and
// keeps its exact ns stamp; it is the last line of its segment. Only
// changed series appear, values as the series' own JSON tokens.
//
// A declaration names a series once per stream, not per segment: its
// labels leave out `device` when that is the segment's device (the
// segment header already names it), so the same series on every device
// of a campaign shares one id. Ids are 0, 1, ... in declaration order.
// A shard records its samples against its own key table
// (TimeseriesRecorder); one TimeseriesWriter per stream maps those keys
// to stream ids and renders every line, so ShardScheduler, which writes
// the shards' segments in canonical device order at its merge frontier,
// produces the same bytes at any worker count. Stamps are sim time only.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "report/json.hpp"
#include "sim/event_loop.hpp"

namespace gatekit::obs {

struct TimeseriesOptions {
    /// Sampling cadence; a whole number of milliseconds.
    sim::Duration interval{std::chrono::seconds(1)};
    std::string device; ///< segment header: the shard's device label
    int shard = -1;     ///< segment header; -1 = unsharded run
};

/// One segment's recorded samples, keyed by the segment's own series
/// table. Filled by a TimeseriesRecorder, rendered (and emptied) by a
/// TimeseriesWriter; it does not refer to the registry it came from.
struct TimeseriesSegment {
    struct Series {
        /// `"name":…,"labels":{…},"kind":…`: decls[decl_begin, decl_end)
        std::uint32_t decl_begin;
        std::uint32_t decl_end;
        bool counter;
    };
    struct Point {
        std::uint32_t series; ///< index into `series`
        double value;
    };
    struct Line {
        std::int64_t stamp; ///< ticks since the previous sample, or ns
        bool end;           ///< the end-of-run flush (stamp in ns)
        std::uint32_t points_end; ///< one past this line's last point
    };

    std::string device;
    int shard = -1;
    std::vector<Series> series;
    std::string decls;         ///< the series' declaration texts
    std::vector<Line> lines;   ///< recorded, not yet rendered
    std::vector<Point> points; ///< the lines' points, in order

    /// Writer state: the segment's number in its stream (0 = header not
    /// out yet), and each series' stream id plus one (0 = not mapped).
    std::uint32_t number = 0;
    std::vector<std::uint32_t> stream_ids;
};

/// Samples a registry into a TimeseriesSegment. Install with
/// loop.set_advance_hook(&r) and clear the hook before finish(). The
/// registry must not hold two scalars whose labels differ only by a
/// `device` label naming the segment's device: the stream would see one
/// series (a contract violation when the writer meets both).
class TimeseriesRecorder final : public sim::AdvanceHook {
public:
    TimeseriesRecorder(MetricsRegistry& reg, TimeseriesOptions opts);

    TimeseriesRecorder(const TimeseriesRecorder&) = delete;
    TimeseriesRecorder& operator=(const TimeseriesRecorder&) = delete;

    sim::TimePoint on_advance(sim::TimePoint t) override;

    /// Final flush at end-of-run: records any still-unreported changes
    /// stamped at `end` (the loop's final sim time — deterministic).
    void finish(sim::TimePoint end);

    TimeseriesSegment& segment() { return seg_; }

private:
    void sample(sim::TimePoint stamp, bool end);
    /// The segment's series index for registry scalar `id`, declared on
    /// first use.
    std::uint32_t series_of(std::uint32_t id,
                            const MetricsRegistry::ScalarRef& s);

    MetricsRegistry& reg_; ///< the recorder takes its dirty list
    std::int64_t interval_ns_;
    TimeseriesSegment seg_;
    std::vector<double> prev_; ///< last recorded value per scalar id
    std::vector<std::uint32_t> series_; ///< scalar id -> series index + 1
    std::vector<std::uint32_t> dirty_; ///< ids taken at this boundary
    std::int64_t last_stamp_ns_ = -1;
    std::int64_t last_tick_ = 0; ///< tick of the last recorded sample
};

/// Renders one stream: the stream header at construction, then each
/// segment handed to write(), mapping segment series to stream ids.
class TimeseriesWriter {
public:
    TimeseriesWriter(std::ostream& out, sim::Duration interval);

    TimeseriesWriter(const TimeseriesWriter&) = delete;
    TimeseriesWriter& operator=(const TimeseriesWriter&) = delete;

    /// Write `seg`'s header if it is not out yet, then its recorded
    /// lines (declaring series at first use), and empty its lines.
    void write(TimeseriesSegment& seg);

    std::uint64_t lines_written() const { return lines_; }

private:
    struct Hash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::ostream& out_;
    std::string buf_; ///< the lines of one write(), sent at once
    /// Declaration text -> stream id.
    std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>>
        ids_;
    /// Per stream id, the number of the last segment that mapped one of
    /// its series to it: two in one segment break the recorder contract.
    std::vector<std::uint32_t> mapped_by_;
    std::uint32_t segments_ = 0;
    std::uint64_t lines_ = 0;
};

/// A one-segment stream written as it is sampled: a recorder and a
/// writer. Writes both headers immediately. The registry and stream
/// must outlive the sampler; install with loop.set_advance_hook(&s) and
/// clear the hook before destroying the sampler.
class TimeseriesSampler final : public sim::AdvanceHook {
public:
    using Options = TimeseriesOptions;

    TimeseriesSampler(MetricsRegistry& reg, std::ostream& out,
                      Options opts);

    sim::TimePoint on_advance(sim::TimePoint t) override;

    /// Final flush at end-of-run (see TimeseriesRecorder::finish). Call
    /// after the loop drains, before closing the stream.
    void finish(sim::TimePoint end);

    std::uint64_t lines_emitted() const { return writer_.lines_written(); }

private:
    TimeseriesWriter writer_;
    TimeseriesRecorder recorder_;
};

/// One point of a decoded stream, valid during the callback.
struct TimeseriesPoint {
    std::string_view device; ///< the segment's
    std::int64_t shard;
    std::int64_t stamp_ns;
    bool end; ///< from the segment's end-of-run flush
    std::uint32_t series;
    std::string_view name;
    const report::JsonValue& labels; ///< as declared (an object)
    std::string_view kind;
    const report::JsonValue& value;
    std::uint64_t line;
};

/// Reads a (possibly multi-segment) v2 stream one line at a time and
/// calls `on_point` (may be empty) for every sampled point, in stream
/// order. Checks that every line is valid JSON; the stream header comes
/// first and once; data sits inside a segment; declarations number
/// 0, 1, ... with each (name, labels, kind) once and precede use; ids,
/// stamps and ticks are non-negative integers; every id has a value;
/// and nothing follows a segment's end-of-run flush, which must not
/// predate its last sample. False on the first violation, with
/// "line N: what" in `error`. Memory stays O(longest line + declared
/// series) however large the sidecar (population streams reach tens of
/// MB). Pass an std::ifstream for a sidecar file or an
/// std::istringstream for a stream in memory.
bool read_timeseries(std::istream& in,
                     const std::function<void(const TimeseriesPoint&)>&
                         on_point,
                     std::string* error = nullptr);

/// read_timeseries with no callback.
bool validate_timeseries(std::istream& in, std::string* error = nullptr);

} // namespace gatekit::obs
