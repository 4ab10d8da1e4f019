#include "obs/timeseries.hpp"

#include "report/json.hpp"
#include "util/assert.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <unordered_set>
#include <vector>

namespace gatekit::obs {

TimeseriesSampler::TimeseriesSampler(MetricsRegistry& reg,
                                     std::ostream& out, Options opts)
    : reg_(reg), out_(out), opts_(std::move(opts)) {
    GK_EXPECTS(opts_.interval > sim::Duration::zero());
    report::JsonWriter w(out_);
    w.begin_object();
    w.key("schema").value("gatekit.timeseries.v1");
    w.key("interval_ms")
        .value(static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                opts_.interval)
                .count()));
    w.key("device").value(opts_.device);
    w.key("shard").value(static_cast<std::int64_t>(opts_.shard));
    w.end_object();
    out_ << '\n';
    ++lines_;
}

sim::TimePoint TimeseriesSampler::on_advance(sim::TimePoint t) {
    // Stamp the last interval boundary at or below t: every handler
    // strictly before t has run, none at t has, so the sample is the
    // state "entering" this stretch of virtual time. Long idle jumps
    // cross many boundaries but emit at most one line — intermediate
    // boundaries saw no state change by construction (nothing ran).
    const std::int64_t iv = opts_.interval.count();
    const std::int64_t k = t.count() / iv;
    sample(sim::TimePoint(sim::Duration(k * iv)));
    return sim::TimePoint(sim::Duration((k + 1) * iv));
}

void TimeseriesSampler::finish(sim::TimePoint end) {
    // Events AT the last sampled boundary run after that boundary's
    // sample, so the final flush must not be deduplicated away — a
    // trailing line may share its predecessor's timestamp (validators
    // accept equal stamps, only regressions fail).
    sample(end, /*force=*/true);
}

namespace {

template <typename Int>
void append_int(std::string& out, Int v) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_quoted(std::string& out, std::string_view s) {
    out += '"';
    out += report::json_escape(s);
    out += '"';
}

} // namespace

void TimeseriesSampler::sample(sim::TimePoint stamp, bool force) {
    if (!force && stamp.count() <= last_stamp_ns_) return;

    // Only scalars written since the last sample can differ from what
    // was last emitted; ascending ids keep the stream in registration
    // order. A write that restored the emitted value emits nothing.
    reg_.take_dirty(dirty_);
    if (dirty_.empty()) return;
    std::sort(dirty_.begin(), dirty_.end());
    line_.assign("{\"t_ns\":");
    append_int(line_, static_cast<std::int64_t>(stamp.count()));
    line_ += ",\"v\":[";
    const std::size_t no_values = line_.size();
    for (const std::uint32_t id : dirty_) {
        const MetricsRegistry::ScalarRef s = reg_.scalar(id);
        const bool integral = s.counter != nullptr;
        const double v = integral ? static_cast<double>(s.counter->value)
                                  : s.gauge->value;
        if (id >= prev_.size()) {
            prev_.resize(id + 1, 0.0);
            declared_.resize(id + 1, 0);
        }
        if (v == prev_[id]) continue;
        prev_[id] = v;
        if (declared_[id] == 0) {
            declared_[id] = 1;
            decl_.assign("{\"series\":");
            append_int(decl_, id);
            decl_ += ",\"name\":";
            append_quoted(decl_, s.name);
            decl_ += ",\"labels\":{";
            const char* sep = "";
            for (const auto& [lk, lv] : s.labels) {
                decl_ += sep;
                sep = ",";
                append_quoted(decl_, lk);
                decl_ += ':';
                append_quoted(decl_, lv);
            }
            decl_ += integral ? "},\"kind\":\"counter\"}\n"
                              : "},\"kind\":\"gauge\"}\n";
            out_.write(decl_.data(),
                       static_cast<std::streamsize>(decl_.size()));
            ++lines_;
        }
        if (line_.size() != no_values) line_ += ',';
        line_ += '[';
        append_int(line_, id);
        line_ += ',';
        if (integral)
            append_int(line_, static_cast<std::uint64_t>(v));
        else
            line_ += report::json_double(v);
        line_ += ']';
    }
    if (line_.size() == no_values) return;
    last_stamp_ns_ = std::max(last_stamp_ns_, stamp.count());
    line_ += "]}\n";
    out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
    ++lines_;
}

bool validate_timeseries(std::istream& in, std::string* error) {
    bool in_segment = false;
    std::int64_t last_t = -1;
    std::unordered_set<std::int64_t> declared; // series ids this segment
    std::size_t line_no = 0;
    // Series ids and timestamps are non-negative integer tokens; anything
    // else reads as -1, which is never a declared id.
    const auto nonneg_int = [](const report::JsonValue& v) -> std::int64_t {
        return v.type == report::JsonValue::Type::Number && v.is_integer &&
                       v.integer >= 0
                   ? v.integer
                   : -1;
    };
    const auto fail = [&](const std::string& what) {
        if (error) *error = "line " + std::to_string(line_no) + ": " + what;
        return false;
    };
    // One line in memory at a time: a multi-gigabyte campaign sidecar
    // validates in O(longest line), not O(file).
    for (std::string l; std::getline(in, l);) {
        ++line_no;
        if (l.empty()) continue;
        const auto doc = report::json_parse(l);
        if (!doc) return fail("invalid JSON");
        if (const auto* schema = doc->find("schema")) {
            if (schema->as_string() != "gatekit.timeseries.v1")
                return fail("wrong schema tag");
            if (doc->find("interval_ms") == nullptr)
                return fail("header missing interval_ms");
            in_segment = true;
            last_t = -1;
            declared.clear();
            continue;
        }
        if (!in_segment) return fail("data before segment header");
        if (const auto* series = doc->find("series")) {
            if (doc->find("name") == nullptr || doc->find("kind") == nullptr)
                return fail("declaration missing name/kind");
            const std::int64_t id = nonneg_int(*series);
            if (id < 0) return fail("series id is not a non-negative integer");
            declared.insert(id);
            continue;
        }
        const auto* t = doc->find("t_ns");
        const auto* v = doc->find("v");
        if (t == nullptr || v == nullptr ||
            v->type != report::JsonValue::Type::Array)
            return fail("expected header, declaration, or sample");
        const std::int64_t t_ns = nonneg_int(*t);
        if (t_ns < 0) return fail("t_ns is not a non-negative integer");
        if (t_ns < last_t)
            return fail("timestamps regress within a segment");
        last_t = t_ns;
        for (const auto& pair : v->array) {
            if (pair.type != report::JsonValue::Type::Array ||
                pair.array.size() != 2)
                return fail("sample pair is not [id, value]");
            const std::int64_t id = nonneg_int(pair.array[0]);
            if (declared.count(id) == 0)
                return fail("sample references undeclared series " +
                            report::json_serialize(pair.array[0]));
        }
    }
    if (!in_segment) {
        if (error) *error = "no segment header found";
        return false;
    }
    return true;
}

} // namespace gatekit::obs
