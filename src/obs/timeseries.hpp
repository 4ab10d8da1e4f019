// Streaming time-series sink: samples every counter and gauge in a
// MetricsRegistry on a sim-time cadence and appends JSONL (schema
// "gatekit.timeseries.v1") to an output stream. Implemented as a
// sim::AdvanceHook — it observes the clock the loop was advancing
// anyway and never schedules events, so a campaign's virtual-time
// behavior (and every byte-gated artifact) is identical with the
// sampler on or off.
//
// Work, memory and output are bounded by what changes. Counters and
// gauges put their scalar id on the registry's dirty list at their first
// write after a boundary (MetricsRegistry::take_dirty), so a boundary
// visits only the series written since the last one, not every
// registered scalar. The sampler keeps the last emitted value per
// series, emits a series only when its value differs from that, emits
// at most one line per crossed interval boundary, and emits nothing at
// all for boundaries where no value changed — a 24-hour idle
// binding-timeout gap costs zero lines, not 86,400.
//
// Stream layout (one JSON object per line):
//   {"schema":"gatekit.timeseries.v1","interval_ms":...,
//    "device":"...","shard":k}                         header, once
//   {"series":i,"name":"...","labels":{...},
//    "kind":"counter"|"gauge"}                         declaration,
//                                                      first use of i
//   {"t_ns":...,"v":[[i,value],...]}                   sample (changed
//                                                      series only)
// Series ids are indices into the registry's registration order and
// are scoped to the stream segment that declared them: a merged
// multi-shard file is a concatenation of self-contained segments, each
// re-starting with its own header line. Timestamps are sim-time only —
// the stream is byte-identical across runs and worker counts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"

namespace gatekit::obs {

class TimeseriesSampler final : public sim::AdvanceHook {
public:
    struct Options {
        sim::Duration interval{std::chrono::seconds(1)};
        std::string device; ///< header metadata: the shard's device label
        int shard = -1;     ///< header metadata; -1 = unsharded run
    };

    /// Writes the header line immediately. The registry and stream must
    /// outlive the sampler; install with loop.set_advance_hook(&s) and
    /// clear the hook before destroying the sampler.
    TimeseriesSampler(MetricsRegistry& reg, std::ostream& out,
                      Options opts);

    TimeseriesSampler(const TimeseriesSampler&) = delete;
    TimeseriesSampler& operator=(const TimeseriesSampler&) = delete;

    sim::TimePoint on_advance(sim::TimePoint t) override;

    /// Final flush at end-of-run: emits any still-unreported changes
    /// stamped at `end` (the loop's final sim time — deterministic).
    /// Call after the loop drains, before closing the stream.
    void finish(sim::TimePoint end);

    std::uint64_t lines_emitted() const { return lines_; }

private:
    void sample(sim::TimePoint stamp, bool force = false);
    /// Write series `id`'s declaration line.
    void declare(std::uint32_t id, const MetricsRegistry::ScalarRef& s);

    MetricsRegistry& reg_; ///< the sampler takes its dirty list
    std::ostream& out_;
    Options opts_;
    std::vector<double> prev_;     ///< last emitted value per series id
    std::vector<char> declared_;   ///< series id has a declaration line
    std::vector<std::uint32_t> dirty_; ///< ids taken at this boundary
    std::string line_; ///< buffer the sample line is rendered into
    std::string decl_;                 ///< declaration line being rendered
    std::uint64_t lines_ = 0;
    std::int64_t last_stamp_ns_ = -1;
};

/// Structural check for a (possibly multi-segment) timeseries stream:
/// every line is valid JSON, the first line of each segment carries the
/// schema tag, declarations precede use, series ids and timestamps are
/// non-negative integers, and sample timestamps are non-decreasing
/// within a segment. Reads one line at a time, so memory
/// stays O(longest line) however large the sidecar (population-scale
/// streams reach tens of MB). Pass an std::ifstream for a sidecar file or
/// an std::istringstream for a stream in memory.
bool validate_timeseries(std::istream& in, std::string* error = nullptr);

} // namespace gatekit::obs
