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

/// splitmix64's finalizer: spreads a packed key over the table.
std::uint64_t mix(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t hash_name(std::string_view name) {
    return std::hash<std::string_view>{}(name);
}

std::uint64_t hash_labels(const Labels& labels) {
    std::uint64_t h = mix(labels.size());
    for (const auto& [k, v] : labels) {
        h = mix(h ^ std::hash<std::string_view>{}(k));
        h = mix(h ^ std::hash<std::string_view>{}(v));
    }
    return h;
}

std::uint64_t hash_key(std::uint32_t name, std::uint32_t labels) {
    return mix((std::uint64_t{name} << 32) | labels);
}

} // namespace

std::uint32_t MetricsRegistry::IdIndex::add(std::uint64_t h) {
    const auto id = static_cast<std::uint32_t>(hashes_.size());
    hashes_.push_back(h);
    if (2 * hashes_.size() <= slots_.size()) {
        place(id);
        return id;
    }
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
    hashes_.reserve(slots_.size() / 2);
    for (std::uint32_t i = 0; i <= id; ++i) place(i);
    return id;
}

void MetricsRegistry::IdIndex::place(std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hashes_[id] & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id + 1;
}

std::uint32_t MetricsRegistry::find_name(std::string_view name) const {
    return name_index_.find(hash_name(name), [&](std::uint32_t id) {
        return names_[id] == name;
    });
}

std::uint32_t MetricsRegistry::name_id(std::string_view name) {
    const std::uint32_t id = find_name(name);
    if (id != IdIndex::kNone) return id;
    names_.emplace_back(name);
    return name_index_.add(hash_name(name));
}

std::uint32_t MetricsRegistry::find_labels(const Labels& labels) const {
    return label_index_.find(hash_labels(labels), [&](std::uint32_t id) {
        return label_sets_[id] == labels;
    });
}

MetricsRegistry::LabelSet MetricsRegistry::label_set(const Labels& labels) {
    const std::uint32_t id = find_labels(labels);
    if (id != IdIndex::kNone) return LabelSet(id);
    label_sets_.push_back(labels);
    return LabelSet(label_index_.add(hash_labels(labels)));
}

std::uint32_t MetricsRegistry::find_entry(std::uint32_t name,
                                          std::uint32_t labels) const {
    return entry_index_.find(hash_key(name, labels), [&](std::uint32_t i) {
        return at(i).name == name && at(i).labels == labels;
    });
}

MetricsRegistry::Entry* MetricsRegistry::entry(std::uint32_t name,
                                               std::uint32_t labels,
                                               Kind kind) {
    if (const std::uint32_t i = find_entry(name, labels);
        i != IdIndex::kNone)
        return at(i).kind == kind ? &at(i) : nullptr;
    if (size_ == chunks_.size() * kChunk)
        chunks_.push_back(std::make_unique<Entry[]>(kChunk));
    Entry& e = at(size_++);
    entry_index_.add(hash_key(name, labels));
    e.name = name;
    e.labels = labels;
    e.kind = kind;
    ChangeMark* mark = nullptr;
    switch (kind) {
    case Kind::kCounter: mark = &e.counter.mark; break;
    case Kind::kGauge: mark = &e.gauge.mark; break;
    case Kind::kLogHistogram:
        e.log_histogram = std::make_unique<LogHistogram>();
        break;
    }
    if (mark != nullptr) {
        mark->dirty = &dirty_;
        mark->id = static_cast<std::uint32_t>(scalars_.size());
        mark->queued = false;
        scalars_.push_back(&e);
    }
    return &e;
}

Counter* MetricsRegistry::counter(std::string_view name, LabelSet labels) {
    Entry* e = entry(name_id(name), labels.id_, Kind::kCounter);
    return e ? &e->counter : nullptr;
}

Gauge* MetricsRegistry::gauge(std::string_view name, LabelSet labels) {
    Entry* e = entry(name_id(name), labels.id_, Kind::kGauge);
    return e ? &e->gauge : nullptr;
}

LogHistogram* MetricsRegistry::log_histogram(std::string_view name,
                                             LabelSet labels) {
    Entry* e = entry(name_id(name), labels.id_, Kind::kLogHistogram);
    return e ? e->log_histogram.get() : nullptr;
}

const MetricsRegistry::Entry*
MetricsRegistry::find(std::string_view name, const Labels& labels,
                      Kind kind) const {
    const std::uint32_t n = find_name(name);
    const std::uint32_t l = find_labels(labels);
    if (n == IdIndex::kNone || l == IdIndex::kNone) return nullptr;
    const std::uint32_t i = find_entry(n, l);
    if (i == IdIndex::kNone || at(i).kind != kind) return nullptr;
    return &at(i);
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             const Labels& labels) const {
    const Entry* e = find(name, labels, Kind::kCounter);
    return e ? &e->counter : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name,
                                         const Labels& labels) const {
    const Entry* e = find(name, labels, Kind::kGauge);
    return e ? &e->gauge : nullptr;
}

const LogHistogram*
MetricsRegistry::find_log_histogram(std::string_view name,
                                    const Labels& labels) const {
    const Entry* e = find(name, labels, Kind::kLogHistogram);
    return e ? e->log_histogram.get() : nullptr;
}

MetricsRegistry::ScalarRef MetricsRegistry::scalar(std::uint32_t id) const {
    const Entry& e = *scalars_[id];
    const bool counter = e.kind == Kind::kCounter;
    return ScalarRef{names_[e.name], label_sets_[e.labels],
                     counter ? &e.counter : nullptr,
                     counter ? nullptr : &e.gauge};
}

ChangeMark& MetricsRegistry::mark(std::uint32_t id) {
    Entry& e = *scalars_[id];
    return e.kind == Kind::kCounter ? e.counter.mark : e.gauge.mark;
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
    const std::uint32_t n = find_name(name);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < size_; ++i)
        if (const Entry& e = at(i); e.kind == Kind::kCounter && e.name == n)
            total += e.counter.value;
    return total;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
    // Each of other's names and label sets is interned here once.
    constexpr std::uint32_t kUnmapped = IdIndex::kNone;
    std::vector<std::uint32_t> names(other.names_.size(), kUnmapped);
    std::vector<std::uint32_t> label_sets(other.label_sets_.size(),
                                          kUnmapped);
    for (std::size_t i = 0; i < other.size_; ++i) {
        const Entry& e = other.at(i);
        std::uint32_t& name = names[e.name];
        if (name == kUnmapped) name = name_id(other.names_[e.name]);
        std::uint32_t& labels = label_sets[e.labels];
        if (labels == kUnmapped)
            labels = label_set(other.label_sets_[e.labels]).id_;
        Entry* mine = entry(name, labels, e.kind);
        if (mine == nullptr) continue;
        switch (e.kind) {
        case Kind::kCounter: add(&mine->counter, e.counter.value); break;
        case Kind::kGauge: set(&mine->gauge, e.gauge.value); break;
        case Kind::kLogHistogram:
            mine->log_histogram->merge(*e.log_histogram);
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
    for (std::size_t i = 0; i < size_; ++i) {
        const Entry& e = at(i);
        w.begin_object();
        w.key("name").value(names_[e.name]);
        w.key("labels").begin_object();
        for (const auto& [k, v] : label_sets_[e.labels]) w.key(k).value(v);
        w.end_object();
        switch (e.kind) {
        case Kind::kCounter:
            w.key("kind").value("counter");
            w.key("value").value(e.counter.value);
            break;
        case Kind::kGauge:
            w.key("kind").value("gauge");
            w.key("value").value(e.gauge.value);
            break;
        case Kind::kLogHistogram: {
            const LogHistogram& h = *e.log_histogram;
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
    for (std::size_t i = 0; i < size_; ++i) {
        const Entry& e = at(i);
        const std::string& name = names_[e.name];
        const std::string labels = format_label_cell(label_sets_[e.labels]);
        switch (e.kind) {
        case Kind::kCounter:
            csv.add_row({name, "counter", labels,
                         std::to_string(e.counter.value), "", "", "", "",
                         "", ""});
            break;
        case Kind::kGauge:
            csv.add_row({name, "gauge", labels,
                         report::json_double(e.gauge.value), "", "", "",
                         "", "", ""});
            break;
        case Kind::kLogHistogram: {
            const LogHistogram& h = *e.log_histogram;
            const auto p = [&h](double q) {
                return report::json_double(h.percentile(q));
            };
            csv.add_row({name, "log_histogram", labels, "",
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
