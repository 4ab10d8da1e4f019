#include "obs/timeseries.hpp"

#include "util/assert.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <unordered_set>

namespace gatekit::obs {

namespace {

constexpr std::string_view kSchema = "gatekit.timeseries.v2";

template <typename Int>
void append_int(std::string& out, Int v) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_quoted(std::string& out, std::string_view s) {
    out += '"';
    report::append_json_escaped(out, s);
    out += '"';
}

/// Append a declaration's text after its id to `d`. `device` is left
/// out of the labels when it is the segment's device.
void append_declaration(std::string& d, const MetricsRegistry::ScalarRef& s,
                        const std::string& segment_device) {
    d += "\"name\":";
    append_quoted(d, s.name);
    d += ",\"labels\":{";
    const char* sep = "";
    for (const auto& [lk, lv] : s.labels) {
        if (lk == "device" && lv == segment_device) continue;
        d += sep;
        sep = ",";
        append_quoted(d, lk);
        d += ':';
        append_quoted(d, lv);
    }
    d += s.counter != nullptr ? "},\"kind\":\"counter\""
                              : "},\"kind\":\"gauge\"";
}

} // namespace

// ------------------------------------------------------------- recorder

TimeseriesRecorder::TimeseriesRecorder(MetricsRegistry& reg,
                                       TimeseriesOptions opts)
    : reg_(reg), interval_ns_(opts.interval.count()) {
    // The stream header carries the interval in whole milliseconds, and
    // a reader multiplies ticks by it.
    GK_EXPECTS(opts.interval > sim::Duration::zero() &&
               opts.interval % std::chrono::milliseconds(1) ==
                   sim::Duration::zero());
    seg_.device = std::move(opts.device);
    seg_.shard = opts.shard;
}

sim::TimePoint TimeseriesRecorder::on_advance(sim::TimePoint t) {
    // Stamp the last interval boundary at or below t: every handler
    // strictly before t has run, none at t has, so the sample is the
    // state "entering" this stretch of virtual time. Long idle jumps
    // cross many boundaries but record at most one line — intermediate
    // boundaries saw no state change by construction (nothing ran).
    const std::int64_t k = t.count() / interval_ns_;
    sample(sim::TimePoint(sim::Duration(k * interval_ns_)), false);
    return sim::TimePoint(sim::Duration((k + 1) * interval_ns_));
}

void TimeseriesRecorder::finish(sim::TimePoint end) {
    // Events AT the last sampled boundary run after that boundary's
    // sample, so the final flush must not be deduplicated away; it may
    // share its predecessor's stamp (readers accept equal stamps).
    sample(end, true);
}

std::uint32_t
TimeseriesRecorder::series_of(std::uint32_t id,
                              const MetricsRegistry::ScalarRef& s) {
    if (series_[id] != 0) return series_[id] - 1;
    const auto next = static_cast<std::uint32_t>(seg_.series.size());
    const auto begin = static_cast<std::uint32_t>(seg_.decls.size());
    append_declaration(seg_.decls, s, seg_.device);
    const auto end = static_cast<std::uint32_t>(seg_.decls.size());
    seg_.series.push_back({begin, end, s.counter != nullptr});
    series_[id] = next + 1;
    return next;
}

void TimeseriesRecorder::sample(sim::TimePoint stamp, bool end) {
    if (!end && stamp.count() <= last_stamp_ns_) return;

    // Only scalars written since the last sample can differ from what
    // was last recorded; ascending ids keep each line in registration
    // order. A write that restored the recorded value records nothing.
    reg_.take_dirty(dirty_);
    if (dirty_.empty()) return;
    std::sort(dirty_.begin(), dirty_.end());
    const std::size_t first = seg_.points.size();
    for (const std::uint32_t id : dirty_) {
        const MetricsRegistry::ScalarRef s = reg_.scalar(id);
        const double v = s.counter != nullptr
                             ? static_cast<double>(s.counter->value)
                             : s.gauge->value;
        if (id >= prev_.size()) {
            prev_.resize(id + 1, 0.0);
            series_.resize(id + 1, 0);
        }
        if (v == prev_[id]) continue;
        prev_[id] = v;
        seg_.points.push_back({series_of(id, s), v});
    }
    if (seg_.points.size() == first) return;
    std::int64_t line_stamp = stamp.count();
    if (!end) {
        const std::int64_t tick = stamp.count() / interval_ns_;
        line_stamp = tick - last_tick_;
        last_tick_ = tick;
    }
    last_stamp_ns_ = std::max(last_stamp_ns_, stamp.count());
    seg_.lines.push_back(
        {line_stamp, end, static_cast<std::uint32_t>(seg_.points.size())});
}

// --------------------------------------------------------------- writer

TimeseriesWriter::TimeseriesWriter(std::ostream& out, sim::Duration interval)
    : out_(out) {
    buf_ = "{\"schema\":\"";
    buf_ += kSchema;
    buf_ += "\",\"interval_ms\":";
    append_int(buf_, std::chrono::duration_cast<std::chrono::milliseconds>(
                         interval)
                         .count());
    buf_ += "}\n";
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    ++lines_;
}

void TimeseriesWriter::write(TimeseriesSegment& seg) {
    buf_.clear();
    if (seg.number == 0) {
        seg.number = ++segments_;
        buf_ += "{\"device\":";
        append_quoted(buf_, seg.device);
        buf_ += ",\"shard\":";
        append_int(buf_, seg.shard);
        buf_ += "}\n";
        ++lines_;
    }
    seg.stream_ids.resize(seg.series.size(), 0);
    std::uint32_t first = 0;
    for (const TimeseriesSegment::Line& line : seg.lines) {
        // Declarations go out before the line that first uses them.
        for (std::uint32_t i = first; i < line.points_end; ++i) {
            const std::uint32_t s = seg.points[i].series;
            if (seg.stream_ids[s] != 0) continue;
            const TimeseriesSegment::Series& series = seg.series[s];
            const std::string_view decl(seg.decls.data() + series.decl_begin,
                                        series.decl_end - series.decl_begin);
            auto it = ids_.find(decl);
            if (it == ids_.end()) {
                const auto id = static_cast<std::uint32_t>(ids_.size());
                it = ids_.emplace(decl, id).first;
                mapped_by_.push_back(0);
                buf_ += "{\"series\":";
                append_int(buf_, it->second);
                buf_ += ',';
                buf_ += decl;
                buf_ += "}\n";
                ++lines_;
            }
            // Two scalars whose labels differ only by the segment's own
            // device label would be one series of the stream.
            GK_EXPECTS(mapped_by_[it->second] != seg.number);
            mapped_by_[it->second] = seg.number;
            seg.stream_ids[s] = it->second + 1;
        }
        if (line.end) {
            buf_ += "{\"end_ns\":";
            append_int(buf_, line.stamp);
            buf_ += ",\"v\":[";
        } else {
            buf_ += '[';
            append_int(buf_, line.stamp);
            buf_ += ',';
        }
        for (std::uint32_t i = first; i < line.points_end; ++i) {
            const TimeseriesSegment::Point& p = seg.points[i];
            if (i != first) buf_ += ',';
            append_int(buf_, seg.stream_ids[p.series] - 1);
            buf_ += ',';
            if (seg.series[p.series].counter) {
                append_int(buf_, static_cast<std::uint64_t>(p.value));
            } else {
                char num[report::kJsonDoubleMax];
                buf_.append(num, report::write_json_double(num, p.value));
            }
        }
        buf_ += line.end ? "]}\n" : "]\n";
        ++lines_;
        first = line.points_end;
    }
    seg.lines.clear();
    seg.points.clear();
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

// -------------------------------------------------------------- sampler

TimeseriesSampler::TimeseriesSampler(MetricsRegistry& reg,
                                     std::ostream& out, Options opts)
    : writer_(out, opts.interval), recorder_(reg, std::move(opts)) {
    writer_.write(recorder_.segment());
}

sim::TimePoint TimeseriesSampler::on_advance(sim::TimePoint t) {
    const sim::TimePoint next = recorder_.on_advance(t);
    if (!recorder_.segment().lines.empty()) writer_.write(recorder_.segment());
    return next;
}

void TimeseriesSampler::finish(sim::TimePoint end) {
    recorder_.finish(end);
    writer_.write(recorder_.segment());
}

// --------------------------------------------------------------- reader

bool read_timeseries(std::istream& in,
                     const std::function<void(const TimeseriesPoint&)>&
                         on_point,
                     std::string* error) {
    using report::JsonValue;
    struct Decl {
        std::string name, kind;
        JsonValue labels;
    };
    std::vector<Decl> decls;
    std::unordered_set<std::string> keys; // each (name, labels, kind) once
    std::int64_t interval_ns = 0;         // 0 until the stream header
    bool in_segment = false, ended = false;
    std::string device;
    std::int64_t shard = -1, tick = 0, last_ns = 0;
    std::uint64_t line_no = 0;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

    const auto fail = [&](const std::string& what) {
        if (error) *error = "line " + std::to_string(line_no) + ": " + what;
        return false;
    };
    // Ids, stamps and ticks are non-negative integer tokens; anything
    // else reads as -1.
    const auto nonneg_int = [](const JsonValue* v) -> std::int64_t {
        return v != nullptr && v->type == JsonValue::Type::Number &&
                       v->is_integer && v->integer >= 0
                   ? v->integer
                   : -1;
    };
    // Checks the flat [id, value, ...] run from `from` and hands its
    // points out; "" when it is well formed.
    const auto points = [&](const std::vector<JsonValue>& a, std::size_t from,
                            std::int64_t stamp_ns, bool end) -> std::string {
        if (a.size() <= from || (a.size() - from) % 2 != 0)
            return "expected one or more id, value pairs";
        for (std::size_t i = from; i < a.size(); i += 2) {
            const std::int64_t id = nonneg_int(&a[i]);
            if (id < 0 || static_cast<std::uint64_t>(id) >= decls.size())
                return "sample references undeclared series " +
                       report::json_serialize(a[i]);
            if (a[i + 1].type != JsonValue::Type::Number)
                return "series value is not a number";
            if (!on_point) continue;
            const Decl& d = decls[static_cast<std::size_t>(id)];
            on_point({device, shard, stamp_ns, end,
                      static_cast<std::uint32_t>(id), d.name, d.labels,
                      d.kind, a[i + 1], line_no});
        }
        return {};
    };

    // One line in memory at a time: a multi-gigabyte campaign sidecar
    // reads in O(longest line), not O(file).
    for (std::string l; std::getline(in, l);) {
        ++line_no;
        if (l.empty()) continue;
        const auto doc = report::json_parse(l);
        if (!doc) return fail("invalid JSON");
        if (interval_ns == 0) {
            const auto* schema = doc->find("schema");
            if (schema == nullptr) return fail("data before stream header");
            if (schema->as_string() != kSchema)
                return fail("wrong schema tag");
            const std::int64_t ms = nonneg_int(doc->find("interval_ms"));
            if (ms <= 0 || ms > kMax / 1'000'000)
                return fail("header interval_ms is not a positive integer");
            interval_ns = ms * 1'000'000;
            continue;
        }
        if (doc->type == JsonValue::Type::Array) {
            if (!in_segment) return fail("sample before segment header");
            if (ended) return fail("sample after the end-of-run flush");
            const std::int64_t dt =
                doc->array.empty() ? -1 : nonneg_int(&doc->array[0]);
            if (dt < 0) return fail("dt is not a non-negative integer");
            if (dt > kMax / interval_ns - tick)
                return fail("stamp overflows");
            tick += dt;
            last_ns = tick * interval_ns;
            const std::string bad = points(doc->array, 1, last_ns, false);
            if (!bad.empty()) return fail(bad);
            continue;
        }
        if (doc->find("schema") != nullptr)
            return fail("stream header repeated");
        if (const auto* dev = doc->find("device")) {
            const auto* k = doc->find("shard");
            if (dev->type != JsonValue::Type::String || k == nullptr ||
                k->type != JsonValue::Type::Number || !k->is_integer)
                return fail("segment header needs a device and a shard");
            in_segment = true;
            ended = false;
            device = dev->as_string();
            shard = k->integer;
            tick = last_ns = 0;
            continue;
        }
        if (const auto* series = doc->find("series")) {
            const auto* name = doc->find("name");
            const auto* labels = doc->find("labels");
            const auto* kind = doc->find("kind");
            if (name == nullptr || name->type != JsonValue::Type::String ||
                labels == nullptr ||
                labels->type != JsonValue::Type::Object || kind == nullptr ||
                (kind->as_string() != "counter" &&
                 kind->as_string() != "gauge"))
                return fail("declaration needs a name, labels and kind");
            if (nonneg_int(series) != static_cast<std::int64_t>(decls.size()))
                return fail("series id is not the next id (" +
                            std::to_string(decls.size()) + ")");
            for (const auto& member : labels->members)
                if (member.second.type != JsonValue::Type::String)
                    return fail("label value is not a string");
            std::string key = name->str + '\0' +
                              report::json_serialize(*labels) + '\0' +
                              kind->str;
            if (!keys.insert(std::move(key)).second)
                return fail("series declared twice");
            decls.push_back({name->str, kind->str, *labels});
            continue;
        }
        if (const auto* end_ns = doc->find("end_ns")) {
            if (!in_segment) return fail("end flush before segment header");
            if (ended) return fail("second end-of-run flush");
            const std::int64_t t = nonneg_int(end_ns);
            if (t < 0) return fail("end_ns is not a non-negative integer");
            if (t < last_ns) return fail("end flush predates the last sample");
            const auto* v = doc->find("v");
            if (v == nullptr || v->type != JsonValue::Type::Array)
                return fail("end flush has no value array");
            ended = true;
            last_ns = t;
            const std::string bad = points(v->array, 0, t, true);
            if (!bad.empty()) return fail(bad);
            continue;
        }
        return fail("expected a header, declaration or sample");
    }
    if (interval_ns == 0) {
        if (error) *error = "no stream header found";
        return false;
    }
    return true;
}

bool validate_timeseries(std::istream& in, std::string* error) {
    return read_timeseries(in, {}, error);
}

} // namespace gatekit::obs
