#include "obs/timeseries.hpp"

#include "report/json.hpp"
#include "util/assert.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <unordered_set>
#include <vector>

namespace gatekit::obs {

TimeseriesSampler::TimeseriesSampler(const MetricsRegistry& reg,
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

void TimeseriesSampler::sample(sim::TimePoint stamp, bool force) {
    if (!force && stamp.count() <= last_stamp_ns_) return;

    struct Changed {
        std::size_t id;
        double value;
        bool integral;
    };
    std::vector<Changed> changed;
    std::size_t id = 0;
    reg_.visit_scalars([&](const MetricsRegistry::ScalarRef& s) {
        if (id >= prev_.size()) {
            prev_.resize(id + 1, 0.0);
            declared_.resize(id + 1, 0);
        }
        const bool integral = s.counter != nullptr;
        const double v = integral
                             ? static_cast<double>(s.counter->value)
                             : s.gauge->value;
        if (v != prev_[id]) {
            changed.push_back({id, v, integral});
            prev_[id] = v;
            if (declared_[id] == 0) {
                declared_[id] = 1;
                report::JsonWriter w(out_);
                w.begin_object();
                w.key("series").value(static_cast<std::uint64_t>(id));
                w.key("name").value(s.name);
                w.key("labels").begin_object();
                for (const auto& [lk, lv] : s.labels) w.key(lk).value(lv);
                w.end_object();
                w.key("kind").value(integral ? "counter" : "gauge");
                w.end_object();
                out_ << '\n';
                ++lines_;
            }
        }
        ++id;
    });
    if (changed.empty()) return;
    last_stamp_ns_ = std::max(last_stamp_ns_, stamp.count());
    report::JsonWriter w(out_);
    w.begin_object();
    w.key("t_ns").value(static_cast<std::int64_t>(stamp.count()));
    w.key("v").begin_array();
    for (const Changed& c : changed) {
        w.begin_array();
        w.value(static_cast<std::uint64_t>(c.id));
        if (c.integral)
            w.value(static_cast<std::uint64_t>(c.value));
        else
            w.value(c.value);
        w.end_array();
    }
    w.end_array();
    w.end_object();
    out_ << '\n';
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
