#include "obs/metrics.hpp"

#include "report/csv.hpp"
#include "report/json.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace gatekit::obs {

std::size_t LogHistogram::bucket_index(double v) {
    if (!(v >= 1.0)) return 0; // also catches NaN
    if (v >= std::ldexp(1.0, kMaxOctave)) return kBucketCount - 1;
    int exp = 0;
    // frexp: v == frac * 2^exp with frac in [0.5, 1), so the octave is
    // exp - 1 and 2*frac in [1, 2) locates the linear sub-bucket.
    const double frac = std::frexp(v, &exp);
    const int octave = exp - 1;
    int sub = static_cast<int>((2.0 * frac - 1.0) * kSubBuckets);
    if (sub >= kSubBuckets) sub = kSubBuckets - 1;
    return 1 + static_cast<std::size_t>(octave) * kSubBuckets +
           static_cast<std::size_t>(sub);
}

double LogHistogram::bucket_upper(std::size_t index) {
    if (index == 0) return 1.0;
    const std::size_t i = index - 1;
    const auto octave = static_cast<int>(i / kSubBuckets);
    const auto sub = static_cast<int>(i % kSubBuckets);
    return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets,
                      octave);
}

void LogHistogram::merge(const LogHistogram& other) {
    if (other.total == 0) return;
    if (other.counts.size() > counts.size())
        counts.resize(other.counts.size(), 0);
    for (std::size_t i = 0; i < other.counts.size(); ++i)
        counts[i] += other.counts[i];
    if (total == 0 || other.min < min) min = other.min;
    if (total == 0 || other.max > max) max = other.max;
    total += other.total;
    sum += other.sum;
}

double LogHistogram::percentile(double q) const {
    if (total == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        cum += counts[i];
        if (cum >= rank && cum > 0)
            return std::clamp(bucket_upper(i), min, max);
    }
    return max;
}

void ChangeMark::queue() {
    queued = true;
    dirty->push_back(id);
}

namespace {

void append_field(std::string& key, std::string_view s) {
    const auto n = static_cast<std::uint32_t>(s.size());
    key.append(reinterpret_cast<const char*>(&n), sizeof n);
    key.append(s);
}

/// One string per (name, labels): each field length-prefixed, so a
/// separator inside a name or label cannot make two keys collide.
void key_of(std::string& key, std::string_view name, const Labels& labels) {
    key.clear();
    append_field(key, name);
    for (const auto& [k, v] : labels) {
        append_field(key, k);
        append_field(key, v);
    }
}

} // namespace

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               Labels labels, Kind kind) {
    key_of(key_, name, labels);
    if (auto it = index_.find(key_); it != index_.end()) return *it->second;
    auto e = std::make_unique<Entry>();
    e->name = std::string(name);
    e->labels = std::move(labels);
    e->kind = kind;
    ChangeMark* mark = nullptr;
    switch (kind) {
    case Kind::kCounter:
        e->counter = std::make_unique<Counter>();
        mark = &e->counter->mark;
        break;
    case Kind::kGauge:
        e->gauge = std::make_unique<Gauge>();
        mark = &e->gauge->mark;
        break;
    case Kind::kLogHistogram:
        e->log_histogram = std::make_unique<LogHistogram>();
        break;
    }
    Entry* raw = e.get();
    if (mark != nullptr) {
        mark->dirty = &dirty_;
        mark->id = static_cast<std::uint32_t>(scalars_.size());
        mark->queued = false;
        scalars_.push_back(raw);
    }
    entries_.push_back(std::move(e));
    index_.emplace(key_, raw);
    return *raw;
}

Counter* MetricsRegistry::counter(std::string_view name, Labels labels) {
    return entry(name, std::move(labels), Kind::kCounter).counter.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name, Labels labels) {
    return entry(name, std::move(labels), Kind::kGauge).gauge.get();
}

LogHistogram* MetricsRegistry::log_histogram(std::string_view name,
                                             Labels labels) {
    return entry(name, std::move(labels), Kind::kLogHistogram)
        .log_histogram.get();
}

const MetricsRegistry::Entry*
MetricsRegistry::find(std::string_view name, const Labels& labels,
                      Kind kind) const {
    std::string key;
    key_of(key, name, labels);
    auto it = index_.find(key);
    if (it == index_.end() || it->second->kind != kind) return nullptr;
    return it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             const Labels& labels) const {
    const Entry* e = find(name, labels, Kind::kCounter);
    return e ? e->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name,
                                         const Labels& labels) const {
    const Entry* e = find(name, labels, Kind::kGauge);
    return e ? e->gauge.get() : nullptr;
}

const LogHistogram*
MetricsRegistry::find_log_histogram(std::string_view name,
                                    const Labels& labels) const {
    const Entry* e = find(name, labels, Kind::kLogHistogram);
    return e ? e->log_histogram.get() : nullptr;
}

MetricsRegistry::ScalarRef MetricsRegistry::scalar(std::uint32_t id) const {
    const Entry& e = *scalars_[id];
    return ScalarRef{e.name, e.labels, e.counter.get(), e.gauge.get()};
}

ChangeMark& MetricsRegistry::mark(std::uint32_t id) {
    Entry& e = *scalars_[id];
    return e.counter ? e.counter->mark : e.gauge->mark;
}

void MetricsRegistry::take_dirty(std::vector<std::uint32_t>& out) {
    out.clear();
    out.swap(dirty_);
    for (const std::uint32_t id : out) mark(id).queued = false;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name,
                                             const Labels& labels) const {
    const Counter* c = find_counter(name, labels);
    return c ? c->value : 0;
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
    std::uint64_t total = 0;
    for (const auto& e : entries_)
        if (e->kind == Kind::kCounter && e->name == name)
            total += e->counter->value;
    return total;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
    for (const auto& e : other.entries_) {
        switch (e->kind) {
        case Kind::kCounter:
            add(counter(e->name, e->labels), e->counter->value);
            break;
        case Kind::kGauge:
            set(gauge(e->name, e->labels), e->gauge->value);
            break;
        case Kind::kLogHistogram:
            log_histogram(e->name, e->labels)->merge(*e->log_histogram);
            break;
        }
    }
}

std::string MetricsRegistry::to_json() const {
    std::ostringstream out;
    report::JsonWriter w(out);
    w.begin_object();
    w.key("schema").value("gatekit.metrics.v1");
    w.key("metrics").begin_array();
    for (const auto& e : entries_) {
        w.begin_object();
        w.key("name").value(e->name);
        w.key("labels").begin_object();
        for (const auto& [k, v] : e->labels) w.key(k).value(v);
        w.end_object();
        switch (e->kind) {
        case Kind::kCounter:
            w.key("kind").value("counter");
            w.key("value").value(e->counter->value);
            break;
        case Kind::kGauge:
            w.key("kind").value("gauge");
            w.key("value").value(e->gauge->value);
            break;
        case Kind::kLogHistogram: {
            const LogHistogram& h = *e->log_histogram;
            w.key("kind").value("log_histogram");
            w.key("count").value(h.total);
            w.key("sum").value(h.sum);
            w.key("min").value(h.total ? h.min : 0.0);
            w.key("max").value(h.total ? h.max : 0.0);
            w.key("p50").value(h.percentile(0.50));
            w.key("p90").value(h.percentile(0.90));
            w.key("p99").value(h.percentile(0.99));
            w.key("p999").value(h.percentile(0.999));
            // Sparse [index, count] pairs: a latency sketch touches a
            // handful of octaves out of the 513 possible buckets.
            w.key("buckets").begin_array();
            for (std::size_t i = 0; i < h.counts.size(); ++i) {
                if (h.counts[i] == 0) continue;
                w.begin_array();
                w.value(static_cast<std::uint64_t>(i));
                w.value(h.counts[i]);
                w.end_array();
            }
            w.end_array();
            break;
        }
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return out.str();
}

std::string format_label_cell(const Labels& labels) {
    std::string out;
    auto append = [&out](const std::string& s) {
        for (char c : s) {
            if (c == '\\' || c == '=' || c == ';') out += '\\';
            out += c;
        }
    };
    for (const auto& [k, v] : labels) {
        if (!out.empty()) out += ';';
        append(k);
        out += '=';
        append(v);
    }
    return out;
}

bool parse_label_cell(std::string_view cell, Labels& out) {
    out.clear();
    if (cell.empty()) return true;
    std::string key, val;
    std::string* cur = &key;
    bool have_key = false; // saw the pair's unescaped '='
    for (std::size_t i = 0; i < cell.size(); ++i) {
        const char c = cell[i];
        if (c == '\\') {
            if (++i >= cell.size()) return false;
            *cur += cell[i];
        } else if (c == '=' && !have_key) {
            cur = &val;
            have_key = true;
        } else if (c == ';') {
            if (!have_key) return false;
            out.emplace_back(std::move(key), std::move(val));
            key.clear();
            val.clear();
            cur = &key;
            have_key = false;
        } else {
            *cur += c;
        }
    }
    if (!have_key) return false;
    out.emplace_back(std::move(key), std::move(val));
    return true;
}

std::string MetricsRegistry::to_csv() const {
    report::CsvWriter csv({"name", "kind", "labels", "value", "sum", "count",
                           "p50", "p90", "p99", "p999"});
    for (const auto& e : entries_) {
        const std::string labels = format_label_cell(e->labels);
        switch (e->kind) {
        case Kind::kCounter:
            csv.add_row({e->name, "counter", labels,
                         std::to_string(e->counter->value), "", "", "", "",
                         "", ""});
            break;
        case Kind::kGauge:
            csv.add_row({e->name, "gauge", labels,
                         report::json_double(e->gauge->value), "", "", "",
                         "", "", ""});
            break;
        case Kind::kLogHistogram: {
            const LogHistogram& h = *e->log_histogram;
            const auto p = [&h](double q) {
                return report::json_double(h.percentile(q));
            };
            csv.add_row({e->name, "log_histogram", labels, "",
                         report::json_double(h.sum), std::to_string(h.total),
                         p(0.50), p(0.90), p(0.99), p(0.999)});
            break;
        }
        }
    }
    return csv.to_string();
}

bool MetricsRegistry::save_json(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << to_json() << '\n';
    return static_cast<bool>(out);
}

bool validate_metrics_json(std::string_view text, std::string* error) {
    const auto doc = report::json_parse(text, error);
    if (!doc) return false;
    auto fail = [&](const char* what) {
        if (error) *error = what;
        return false;
    };
    const auto* schema = doc->find("schema");
    if (schema == nullptr || schema->as_string() != "gatekit.metrics.v1")
        return fail("missing or wrong schema tag");
    const auto* metrics = doc->find("metrics");
    if (metrics == nullptr || metrics->type != report::JsonValue::Type::Array)
        return fail("missing metrics array");
    for (const report::JsonValue& entry : metrics->array) {
        const auto* name = entry.find("name");
        const auto* kind = entry.find("kind");
        if (name == nullptr || name->type != report::JsonValue::Type::String ||
            kind == nullptr)
            return fail("metric entry missing name or kind");
        const std::string& k = kind->as_string();
        if (k != "counter" && k != "gauge" && k != "log_histogram")
            return fail("unknown metric kind");
    }
    return true;
}

} // namespace gatekit::obs
