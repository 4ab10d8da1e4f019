// Observability layer: registry semantics, JSON/CSV snapshots, the
// streaming JSON writer + parser, trace events, the flight recorder's
// ring/dump behavior, and an end-to-end campaign with metrics and tracing
// attached (which must also leave the measured physics untouched).
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "harness/testrund.hpp"
#include "obs/obs.hpp"
#include "report/csv.hpp"
#include "report/json.hpp"

using namespace gatekit;
using namespace gatekit::obs;

// --- MetricsRegistry --------------------------------------------------------

TEST(Metrics, RegistrationDedupsOnNameAndLabels) {
    MetricsRegistry reg;
    Counter* a = reg.counter("x", {{"device", "d1"}});
    Counter* b = reg.counter("x", {{"device", "d1"}});
    Counter* c = reg.counter("x", {{"device", "d2"}});
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, NullSafeHelpersAreNoOpsWhenDisabled) {
    inc(static_cast<Counter*>(nullptr));
    add(static_cast<Counter*>(nullptr), 7);
    set(static_cast<Gauge*>(nullptr), 1.0);
    observe(static_cast<LogHistogram*>(nullptr), 1.0);

    MetricsRegistry reg;
    Counter* c = reg.counter("c");
    inc(c);
    add(c, 4);
    EXPECT_EQ(c->value, 5u);
    EXPECT_EQ(reg.counter_value("c"), 5u);
    EXPECT_EQ(reg.counter_value("absent"), 0u);
}

TEST(Metrics, CounterTotalSumsAcrossLabelSets) {
    MetricsRegistry reg;
    reg.counter("hits", {{"device", "d1"}})->value = 3;
    reg.counter("hits", {{"device", "d2"}})->value = 4;
    reg.counter("other")->value = 100;
    EXPECT_EQ(reg.counter_total("hits"), 7u);
    EXPECT_EQ(reg.counter_total("nope"), 0u);
}

TEST(Metrics, JsonSnapshotValidatesAgainstSchema) {
    MetricsRegistry reg;
    reg.counter("nat.binding.created", {{"device", "we#1"}})->value = 12;
    reg.gauge("nat.binding.occupancy", {{"device", "we#1"}})->value = 3.5;
    reg.log_histogram("fwd.packet.bytes")->observe(1400.0);
    const std::string json = reg.to_json();

    std::string error;
    EXPECT_TRUE(report::json_parse(json, &error).has_value()) << error;
    EXPECT_TRUE(validate_metrics_json(json, &error)) << error;
    EXPECT_NE(json.find("\"gatekit.metrics.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"nat.binding.created\""), std::string::npos);
    EXPECT_NE(json.find("\"device\":\"we#1\""), std::string::npos);

    // Label keys may collide with entry fields; only the entry's own
    // name and kind count.
    MetricsRegistry colliding;
    colliding.counter("c", {{"name", "x"}, {"kind", "y"}})->value = 1;
    EXPECT_TRUE(validate_metrics_json(colliding.to_json(), &error)) << error;
}

TEST(Metrics, JsonEscapesAwkwardLabelValues) {
    MetricsRegistry reg;
    reg.counter("c", {{"model", "say \"hi\"\\\n"}});
    const std::string json = reg.to_json();
    std::string error;
    EXPECT_TRUE(report::json_parse(json, &error).has_value()) << error;
}

TEST(Metrics, CsvSnapshotHasHeaderAndRows) {
    MetricsRegistry reg;
    reg.counter("hits", {{"device", "d1"}, {"proto", "udp"}})->value = 9;
    const std::string csv = reg.to_csv();
    EXPECT_NE(csv.find("name"), std::string::npos);
    EXPECT_NE(csv.find("hits"), std::string::npos);
    EXPECT_NE(csv.find("device=d1;proto=udp"), std::string::npos);
}

namespace {

/// Minimal RFC-4180 reader for the round-trip test: rows of cells,
/// honoring quoted cells with embedded commas/quotes/newlines.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    cell += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cell += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            row.push_back(std::move(cell));
            cell.clear();
        } else if (c == '\n') {
            row.push_back(std::move(cell));
            cell.clear();
            rows.push_back(std::move(row));
            row.clear();
        } else {
            cell += c;
        }
    }
    return rows;
}

} // namespace

TEST(Metrics, LabelCellRoundTripsAdversarialValues) {
    // Label keys/values stuffed with every separator in the pipeline:
    // the label-cell syntax ('=', ';', '\\'), the CSV layer (commas,
    // quotes, newlines, CR), and innocuous unicode bytes.
    const std::vector<Labels> cases = {
        {},
        {{"k", ""}},
        {{"", "v"}},
        {{"svc", "port=53;proto=udp"}},
        {{"path", "C:\\temp\\x"}, {"q", "say \"hi\", ok?"}},
        {{"nl", "line1\nline2\rline3"}},
        {{"w=1;x", "a\\b=c;d"}, {"tail\\", "\\"}},
        {{"utf8", "p\xc3\xa4ket"}, {"empty", ""}},
    };
    for (const auto& labels : cases) {
        const std::string cell = format_label_cell(labels);
        Labels back;
        ASSERT_TRUE(parse_label_cell(cell, back)) << cell;
        EXPECT_EQ(back, labels) << cell;
    }
    // Malformed cells are rejected, not misparsed.
    Labels out;
    EXPECT_FALSE(parse_label_cell("novalue", out));
    EXPECT_FALSE(parse_label_cell("a=b;novalue", out));
    EXPECT_FALSE(parse_label_cell("a=b\\", out));
}

TEST(Metrics, CsvSnapshotRoundTripsAdversarialLabels) {
    // End to end: adversarial labels -> to_csv() -> RFC-4180 parse ->
    // parse_label_cell -> the original pairs, bit for bit. This breaks
    // if either the CSV layer or the label-cell escaping is lossy.
    const Labels awkward = {{"svc", "port=53;proto=udp"},
                            {"model", "say \"hi\", \\raw\nnewline"},
                            {"dir", "a2b"}};
    const Labels plain = {{"device", "d1"}};
    MetricsRegistry reg;
    reg.counter("hits", awkward)->value = 7;
    reg.gauge("load", plain)->value = 0.5;
    const auto rows = parse_csv(reg.to_csv());
    ASSERT_EQ(rows.size(), 3u);
    // header: name,kind,labels,value,sum,count,p50,p90,p99,p999
    ASSERT_EQ(rows[0].size(), 10u);
    ASSERT_EQ(rows[1].size(), 10u);
    EXPECT_EQ(rows[1][0], "hits");
    EXPECT_EQ(rows[1][3], "7");
    Labels back;
    ASSERT_TRUE(parse_label_cell(rows[1][2], back));
    EXPECT_EQ(back, awkward);
    ASSERT_TRUE(parse_label_cell(rows[2][2], back));
    EXPECT_EQ(back, plain);
}

namespace {

/// splitmix64, so the registry scripts are reproducible.
std::uint64_t mix64(std::uint64_t& state) {
    std::uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// MetricsRegistry's contract as a plain std::map: entries keyed by
/// (name, labels) in registration order, a kind mismatch yields no
/// instrument, counters and gauges take scalar ids in registration
/// order, and the snapshots render every entry in that order.
struct RegistryModel {
    enum Kind { kCounter, kGauge, kHist };
    struct Entry {
        std::string name;
        Labels labels;
        Kind kind;
        std::uint64_t count = 0;
        double gauge = 0.0;
        LogHistogram hist;
        std::int64_t scalar = -1;
    };
    std::vector<Entry> entries;
    std::map<std::pair<std::string, Labels>, std::size_t> index;
    std::int64_t scalars = 0;

    /// Entry index for (name, labels) of `kind`; -1 on a kind mismatch.
    std::int64_t ask(const std::string& name, const Labels& labels,
                     Kind kind) {
        const auto [it, fresh] =
            index.try_emplace({name, labels}, entries.size());
        if (fresh) {
            entries.push_back({name, labels, kind, 0, 0.0, {}, -1});
            if (kind != kHist) entries.back().scalar = scalars++;
        }
        return entries[it->second].kind == kind
                   ? static_cast<std::int64_t>(it->second)
                   : -1;
    }
    void merge(const RegistryModel& other) {
        for (const Entry& e : other.entries) {
            const std::int64_t i = ask(e.name, e.labels, e.kind);
            if (i < 0) continue;
            Entry& mine = entries[static_cast<std::size_t>(i)];
            mine.count += e.count;
            if (e.kind == kGauge) mine.gauge = e.gauge;
            mine.hist.merge(e.hist);
        }
    }
    std::uint64_t total(const std::string& name) const {
        std::uint64_t sum = 0;
        for (const Entry& e : entries)
            if (e.kind == kCounter && e.name == name) sum += e.count;
        return sum;
    }
    std::string json() const {
        std::ostringstream out;
        report::JsonWriter w(out);
        w.begin_object();
        w.key("schema").value("gatekit.metrics.v1");
        w.key("metrics").begin_array();
        for (const Entry& e : entries) {
            w.begin_object();
            w.key("name").value(e.name);
            w.key("labels").begin_object();
            for (const auto& [k, v] : e.labels) w.key(k).value(v);
            w.end_object();
            const LogHistogram& h = e.hist;
            if (e.kind == kCounter) {
                w.key("kind").value("counter").key("value").value(e.count);
            } else if (e.kind == kGauge) {
                w.key("kind").value("gauge").key("value").value(e.gauge);
            } else {
                w.key("kind").value("log_histogram");
                w.key("count").value(h.total).key("sum").value(h.sum);
                w.key("min").value(h.total ? h.min : 0.0);
                w.key("max").value(h.total ? h.max : 0.0);
                for (const auto& [key, q] :
                     {std::pair{"p50", 0.50}, std::pair{"p90", 0.90},
                      std::pair{"p99", 0.99}, std::pair{"p999", 0.999}})
                    w.key(key).value(h.percentile(q));
                w.key("buckets").begin_array();
                for (std::size_t i = 0; i < h.counts.size(); ++i)
                    if (h.counts[i] != 0)
                        w.begin_array()
                            .value(static_cast<std::uint64_t>(i))
                            .value(h.counts[i])
                            .end_array();
                w.end_array();
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        return out.str();
    }
    std::string csv() const {
        report::CsvWriter csv({"name", "kind", "labels", "value", "sum",
                               "count", "p50", "p90", "p99", "p999"});
        for (const Entry& e : entries) {
            const std::string cell = format_label_cell(e.labels);
            const LogHistogram& h = e.hist;
            const auto p = [&h](double q) {
                return report::json_double(h.percentile(q));
            };
            if (e.kind == kCounter)
                csv.add_row({e.name, "counter", cell,
                             std::to_string(e.count), "", "", "", "", "",
                             ""});
            else if (e.kind == kGauge)
                csv.add_row({e.name, "gauge", cell,
                             report::json_double(e.gauge), "", "", "", "",
                             "", ""});
            else
                csv.add_row({e.name, "log_histogram", cell, "",
                             report::json_double(h.sum),
                             std::to_string(h.total), p(0.50), p(0.90),
                             p(0.99), p(0.999)});
        }
        return csv.to_string();
    }
};

/// A registry and its model driven by the same script, plus the
/// instrument each model entry's first ask returned.
struct ModelledRegistry {
    MetricsRegistry reg;
    RegistryModel model;
    std::vector<const void*> first; ///< by model entry index

    /// Ask both for (name, labels) of `kind`; the registry must answer
    /// with the model entry's instrument, or with nullptr on a mismatch.
    /// Returns the model entry's index, -1 on a mismatch.
    std::int64_t ask(const std::string& name, const Labels& labels,
                     RegistryModel::Kind kind) {
        void* got = nullptr;
        switch (kind) {
        case RegistryModel::kCounter: got = reg.counter(name, labels); break;
        case RegistryModel::kGauge: got = reg.gauge(name, labels); break;
        case RegistryModel::kHist: got = reg.log_histogram(name, labels); break;
        }
        const std::int64_t i = model.ask(name, labels, kind);
        if (first.size() < model.entries.size()) first.push_back(got);
        EXPECT_EQ(first.size(), model.entries.size());
        EXPECT_EQ(got, i < 0 ? nullptr
                             : first[static_cast<std::size_t>(i)]);
        return i;
    }
};

/// Names and label text built to break a naive key: the label-cell and
/// CSV separators, JSON escapes, control bytes, embedded NULs and bytes
/// that read as a little-endian length prefix.
const std::vector<std::string>& hostile_strings() {
    static const std::vector<std::string> kStrings = {
        "",        "a",       "device",       "a=b",     "a;b",
        "k=v;k=v", "\\",      "\\=",          "\"q\"",   "\x01\x02",
        "\n\t\r",  "\x1f",    "nat.binding.created",
        std::string("\0", 1), std::string("\x01\0\0\0a", 5),
        std::string("\x03\0\0\0abc", 7), "p\xc3\xa4ket",
    };
    return kStrings;
}

void run_registry_script(std::uint64_t seed) {
    std::uint64_t state = seed;
    const auto pick = [&state](std::uint64_t n) {
        return static_cast<std::size_t>(mix64(state) % n);
    };
    const auto& pool = hostile_strings();
    const auto text = [&] { return pool[pick(pool.size())]; };
    // Names carry their kind in a prefix byte, so a merge never asks a
    // histogram for a counter's key (merge_from dereferences the
    // histogram it gets back); counter and gauge names cross over.
    const auto name = [&](RegistryModel::Kind kind) {
        const char* prefix = kind == RegistryModel::kHist ? "h" : "s";
        return prefix + text();
    };
    const auto labels = [&] {
        Labels out;
        for (std::size_t n = pick(4); n > 0; --n)
            out.emplace_back(text(), text());
        return out;
    };
    const auto fill = [&](ModelledRegistry& r, std::size_t ops) {
        // Keys asked so far, so repeats ask for existing entries.
        std::vector<std::tuple<std::string, Labels, RegistryModel::Kind>>
            asked;
        for (; ops > 0; --ops) {
            auto kind = static_cast<RegistryModel::Kind>(pick(3));
            std::string n;
            Labels l;
            if (!asked.empty() && pick(3) == 0) {
                std::tie(n, l, kind) = asked[pick(asked.size())];
                if (kind != RegistryModel::kHist && pick(4) == 0)
                    kind = kind == RegistryModel::kCounter
                               ? RegistryModel::kGauge
                               : RegistryModel::kCounter;
            } else {
                n = name(kind);
                l = labels();
                asked.emplace_back(n, l, kind);
            }
            const std::int64_t i = r.ask(n, l, kind);
            if (i < 0) continue;
            const auto at = static_cast<std::size_t>(i);
            auto& e = r.model.entries[at];
            void* got = const_cast<void*>(r.first[at]);
            const auto v = static_cast<std::uint64_t>(pick(1000));
            switch (kind) {
            case RegistryModel::kCounter:
                add(static_cast<Counter*>(got), v);
                e.count += v;
                break;
            case RegistryModel::kGauge:
                set(static_cast<Gauge*>(got), 0.25 * static_cast<double>(v));
                e.gauge = 0.25 * static_cast<double>(v);
                break;
            case RegistryModel::kHist:
                observe(static_cast<LogHistogram*>(got),
                        static_cast<double>(v * v));
                e.hist.observe(static_cast<double>(v * v));
                break;
            }
        }
    };

    ModelledRegistry r;
    for (std::size_t round = 1 + pick(4); round > 0; --round) {
        fill(r, 5 + pick(40));
        ModelledRegistry other;
        fill(other, pick(30));
        r.reg.merge_from(other.reg);
        const std::size_t before = r.model.entries.size();
        r.model.merge(other.model);
        // Entries the merge appended: their first ask is this one.
        for (std::size_t i = before; i < r.model.entries.size(); ++i) {
            const auto& e = r.model.entries[i];
            r.first.push_back(nullptr);
            r.first[i] =
                e.kind == RegistryModel::kCounter
                    ? static_cast<void*>(r.reg.counter(e.name, e.labels))
                : e.kind == RegistryModel::kGauge
                    ? static_cast<void*>(r.reg.gauge(e.name, e.labels))
                    : static_cast<void*>(
                          r.reg.log_histogram(e.name, e.labels));
            EXPECT_NE(r.first[i], nullptr);
        }
    }
    // Every entry reached through its key is the first-returned one.
    for (std::size_t i = 0; i < r.model.entries.size(); ++i) {
        const auto& e = r.model.entries[i];
        r.ask(e.name, e.labels, e.kind);
    }

    ASSERT_EQ(r.reg.size(), r.model.entries.size());
    ASSERT_EQ(r.reg.scalar_count(),
              static_cast<std::size_t>(r.model.scalars));
    for (std::size_t i = 0; i < r.model.entries.size(); ++i) {
        const auto& e = r.model.entries[i];
        if (e.scalar < 0) continue;
        const auto s = r.reg.scalar(static_cast<std::uint32_t>(e.scalar));
        EXPECT_EQ(s.name, e.name);
        EXPECT_EQ(s.labels, e.labels);
        EXPECT_EQ(e.kind == RegistryModel::kCounter
                      ? static_cast<const void*>(s.counter)
                      : static_cast<const void*>(s.gauge),
                  r.first[i]);
        EXPECT_EQ(r.reg.counter_total(e.name), r.model.total(e.name));
    }
    EXPECT_EQ(r.reg.to_json(), r.model.json());
    EXPECT_EQ(r.reg.to_csv(), r.model.csv());
}

} // namespace

TEST(Metrics, RegistryMatchesReferenceModel) {
    for (std::uint64_t seed = 0; seed < 240; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        run_registry_script(seed);
        if (HasFatalFailure()) return;
    }
}

TEST(Metrics, ValidatorRejectsGarbage) {
    EXPECT_FALSE(validate_metrics_json("not json"));
    EXPECT_FALSE(validate_metrics_json("{}"));
    std::string error;
    EXPECT_FALSE(validate_metrics_json(
        "{\"schema\":\"gatekit.metrics.v1\",\"metrics\":[", &error));
    EXPECT_FALSE(error.empty());
    // A label keyed `kind` does not stand in for the entry's kind.
    EXPECT_FALSE(validate_metrics_json(
        "{\"schema\":\"gatekit.metrics.v1\",\"metrics\":[{\"name\":\"c\","
        "\"labels\":{\"kind\":\"counter\"},\"value\":1}]}"));
}

// --- report::JsonWriter / json_parse ---------------------------------------

TEST(Json, WriterPlacesCommasAutomatically) {
    std::ostringstream out;
    report::JsonWriter w(out);
    w.begin_object();
    w.key("a").value(std::int64_t{1});
    w.key("b").begin_array();
    w.value("x").value(true).value(2.5);
    w.end_array();
    w.key("c").begin_object().end_object();
    w.end_object();
    EXPECT_EQ(out.str(), "{\"a\":1,\"b\":[\"x\",true,2.5],\"c\":{}}");
    std::string error;
    EXPECT_TRUE(report::json_parse(out.str(), &error).has_value()) << error;
}

TEST(Json, ValidatorAcceptsAndRejects) {
    for (const char* good :
         {"{}", "[]", "0", "-1.5e3", "\"a\\u00ff\\n\"", "true", "null",
          " { \"k\" : [ 1 , { } , null ] } "})
        EXPECT_TRUE(report::json_parse(good).has_value()) << good;
    for (const char* bad :
         {"", "{", "[1,]", "{\"k\":}", "01", "-00", "0123", "\"\\x\"",
          "{} extra", "'single'", "{\"k\" 1}", "\"unterminated"})
        EXPECT_FALSE(report::json_parse(bad).has_value()) << bad;
}

TEST(Json, LoneHighSurrogateKeepsTheNextEscape) {
    // A high surrogate not followed by a low one is decoded on its own;
    // the escape after it must survive as its own character.
    const auto lone = report::json_parse("\"\\ud800\\u0041\"");
    ASSERT_TRUE(lone.has_value());
    EXPECT_EQ(lone->str, "\xED\xA0\x80"
                         "A");
    const auto pair = report::json_parse("\"\\ud83d\\ude00\"");
    ASSERT_TRUE(pair.has_value());
    EXPECT_EQ(pair->str, "\xF0\x9F\x98\x80");
}

TEST(Json, AsIntOfANumberOutsideInt64YieldsTheDefault) {
    EXPECT_EQ(report::json_parse("2.5")->as_int(-7), 2);
    EXPECT_EQ(report::json_parse("-9007199254740992")->as_int(-7),
              -9007199254740992);
    for (const char* big : {"1e300", "-1e300", "99999999999999999999",
                            "9223372036854775808.0"})
        EXPECT_EQ(report::json_parse(big)->as_int(-7), -7) << big;
}

TEST(Json, AppendEscapedMatchesJsonEscape) {
    // The verbatim path must take exactly the strings json_escape leaves
    // alone: every single byte, and hostile mixtures with the escapable
    // byte first, last or absent.
    std::vector<std::string> cases = {
        "", "plain.name", "say \"hi\"", "back\\slash", "tab\there",
        "nl\n", "\x7f del", "p\xc3\xa4ket", std::string("nul\0x", 5),
        "k=v;k2=v2", "\x1f", "ends with quote\"", "\\"};
    for (int b = 0; b < 256; ++b) {
        cases.emplace_back(1, static_cast<char>(b));
        cases.push_back("ab" + std::string(1, static_cast<char>(b)) + "cd");
    }
    for (const std::string& c : cases) {
        std::string out = "prefix";
        report::append_json_escaped(out, c);
        EXPECT_EQ(out, "prefix" + report::json_escape(c));
    }
}

TEST(Json, DoubleFastPathMatchesShortestForm) {
    // write_json_double prints small integral values as integers; the
    // bytes must equal the shortest round-trip form json_double always
    // promised: to_chars, plus ".0" when that reads as an integer.
    const auto reference = [](double v) {
        if (!std::isfinite(v)) return std::string("0");
        char buf[64];
        std::string out(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        if (out.find_first_of(".eE") == std::string::npos) out += ".0";
        return out;
    };
    std::vector<double> values = {0.0,      -0.0,     1e5,    -1e5,
                                  99999.0,  -99999.0, 1e15,   1e16,
                                  1e21,     0.5,      -0.125, 123456.0,
                                  99999.5,  1e-9,     4e9,    -4e9,
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::denorm_min(),
                                  std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()};
    for (int i = -120000; i <= 120000; i += 7) {
        values.push_back(i);
        values.push_back(i * 10.0);
        values.push_back(i + 0.25);
    }
    for (int e = 0; e <= 20; ++e) values.push_back(std::pow(10.0, e));
    for (const double v : values) {
        char buf[report::kJsonDoubleMax];
        const std::string got(buf, report::write_json_double(buf, v));
        EXPECT_EQ(got, reference(v)) << v;
        EXPECT_EQ(report::json_double(v), got) << v;
    }
}

TEST(Json, DoubleFormattingRoundTripsAndStaysJson) {
    EXPECT_EQ(report::json_double(2.0), "2.0");
    EXPECT_EQ(report::json_double(0.5), "0.5");
    // Non-finite values cannot appear in JSON; clamped.
    const std::string inf =
        report::json_double(std::numeric_limits<double>::infinity());
    EXPECT_TRUE(report::json_parse(inf).has_value()) << inf;
}

// --- Tracing ---------------------------------------------------------------

TEST(Trace, EventLinesAreValidJson) {
    sim::EventLoop loop;
    Tracer tracer(loop);
    loop.after(std::chrono::seconds(3), [] {});
    loop.run();
    auto ev = tracer.event("we#1", "link", "impair.lost");
    ev.with("direction", "a2b").with("bytes", std::int64_t{1500});
    ev.frame = 42;
    const std::string line = ev.to_jsonl();
    std::string error;
    EXPECT_TRUE(report::json_parse(line, &error).has_value()) << error;
    EXPECT_NE(line.find("\"t_ns\":3000000000"), std::string::npos);
    EXPECT_NE(line.find("\"frame\":42"), std::string::npos);
    EXPECT_NE(line.find("\"direction\":\"a2b\""), std::string::npos);
}

TEST(Trace, TracerWithoutSinksIsDisabled) {
    sim::EventLoop loop;
    Tracer tracer(loop);
    EXPECT_FALSE(tracer.enabled());
    EXPECT_FALSE(trace_on(&tracer));
    EXPECT_FALSE(trace_on(nullptr));
    FlightRecorder rec;
    tracer.add_sink(&rec);
    EXPECT_TRUE(trace_on(&tracer));
}

TEST(Trace, FlightRecorderKeepsLastNOldestFirst) {
    sim::EventLoop loop;
    Tracer tracer(loop);
    FlightRecorder rec(4);
    tracer.add_sink(&rec);
    for (int i = 0; i < 10; ++i) {
        auto ev = tracer.event("d", "t", "e");
        ev.with("i", std::int64_t{i});
        tracer.emit(ev);
    }
    EXPECT_EQ(rec.size(), 4u);
    const auto window = rec.snapshot();
    ASSERT_EQ(window.size(), 4u);
    EXPECT_EQ(window.front().fields.at(0).num, 6);
    EXPECT_EQ(window.back().fields.at(0).num, 9);
}

TEST(Trace, FlightRecorderDumpIsJsonlWithHeader) {
    sim::EventLoop loop;
    Tracer tracer(loop);
    FlightRecorder rec(8);
    tracer.add_sink(&rec);
    tracer.emit(tracer.event("d", "probe", "trial.launch"));
    tracer.emit(tracer.event("d", "probe", "trial.verdict"));
    std::ostringstream out;
    EXPECT_EQ(rec.dump(out, "probe.retry"), 2u);
    std::istringstream lines(out.str());
    std::string line;
    int n = 0;
    while (std::getline(lines, line)) {
        std::string error;
        EXPECT_TRUE(report::json_parse(line, &error).has_value()) << error;
        ++n;
    }
    EXPECT_EQ(n, 3); // header + two events
    EXPECT_NE(out.str().find("probe.retry"), std::string::npos);
}

TEST(Trace, TriggerEmitsEventAndFiresSinks) {
    sim::EventLoop loop;
    Tracer tracer(loop);
    FlightRecorder rec(8);
    std::ostringstream stream;
    JsonlSink jsonl(stream);
    tracer.add_sink(&rec);
    tracer.add_sink(&jsonl);
    tracer.trigger("we#1", "gateway.fault");
    // The trigger itself is recorded as an event...
    ASSERT_EQ(rec.size(), 1u);
    EXPECT_EQ(rec.snapshot().front().name, "trigger");
    // ...and the streaming sink gets a trigger marker line.
    EXPECT_NE(stream.str().find("gateway.fault"), std::string::npos);
}

// --- End-to-end: a campaign with observability attached --------------------

namespace {

gateway::DeviceProfile obs_profile() {
    gateway::DeviceProfile p;
    p.tag = "obsd";
    p.udp.initial = std::chrono::seconds(35);
    return p;
}

} // namespace

TEST(ObsEndToEnd, CampaignPopulatesRegistryWithoutChangingResults) {
    // Baseline: no observability.
    double bare_median = 0.0;
    {
        sim::EventLoop loop;
        harness::Testbed tb(loop);
        tb.add_device(obs_profile());
        harness::Testrund rund(tb);
        harness::CampaignConfig cfg;
        cfg.udp1 = true;
        cfg.udp.repetitions = 2;
        bare_median = rund.run_blocking(cfg).at(0).udp1.summary().median;
    }

    sim::EventLoop loop;
    Observability obs(loop);
    FlightRecorder rec(256);
    obs.tracer().add_sink(&rec);
    harness::Testbed tb(loop);
    tb.add_device(obs_profile());
    tb.attach_observability(&obs);
    harness::Testrund rund(tb);
    harness::CampaignConfig cfg;
    cfg.udp1 = true;
    cfg.udp.repetitions = 2;
    const auto r = rund.run_blocking(cfg).at(0);

    // Observation must not perturb the physics: identical virtual-time
    // behavior, hence the identical converged timeout.
    EXPECT_DOUBLE_EQ(r.udp1.summary().median, bare_median);

    auto& reg = obs.metrics();
    EXPECT_GT(reg.counter_value("nat.binding.created",
                                {{"device", "obsd#1"}, {"proto", "udp"}}),
              0u);
    EXPECT_GT(reg.counter_total("fwd.forwarded"), 0u);
    EXPECT_GT(reg.counter_value("probe.trials",
                                {{"device", "obsd#1"}, {"probe", "udp1"}}),
              0u);
    // Lossless run: the probes never needed the watchdog.
    EXPECT_EQ(reg.counter_total("probe.retries"), 0u);
    EXPECT_EQ(reg.counter_total("probe.giveups"), 0u);
    // The search's trial lifecycle was traced into the recorder.
    bool saw_probe_event = false;
    for (const auto& ev : rec.snapshot())
        if (ev.category == "probe") saw_probe_event = true;
    EXPECT_TRUE(saw_probe_event);

    std::string error;
    EXPECT_TRUE(validate_metrics_json(reg.to_json(), &error)) << error;
}

TEST(ObsEndToEnd, WanTapArmedOnlyWhenTraced) {
    const auto run_udp1 = [](Observability& obs, harness::Testbed& tb,
                             bool lossy) {
        tb.add_device(obs_profile());
        tb.attach_observability(&obs);
        if (lossy) {
            sim::LinkImpairments imp;
            imp.loss = 0.2;
            tb.slot(0).wan_link->set_impairments(sim::Link::Side::A, imp, 5);
            tb.slot(0).wan_link->set_impairments(sim::Link::Side::B, imp, 6);
        }
        harness::Testrund rund(tb);
        harness::CampaignConfig cfg;
        cfg.udp1 = true;
        cfg.udp.repetitions = 1;
        rund.run_blocking(cfg);
    };
    {
        // No sink: nothing would read the capture, so it stays unarmed.
        sim::EventLoop loop;
        Observability obs(loop);
        harness::Testbed tb(loop);
        run_udp1(obs, tb, false);
        EXPECT_FALSE(tb.slot(0).wan_tap.attached());
        EXPECT_TRUE(tb.slot(0).wan_tap.records().empty());
        EXPECT_GT(obs.metrics().counter_total("fwd.forwarded"), 0u);
    }
    // A sink added before attaching arms the tap, and the WAN link's
    // impairment events point at the captured frame they hit.
    sim::EventLoop loop;
    Observability obs(loop);
    FlightRecorder rec(1 << 16);
    obs.tracer().add_sink(&rec);
    harness::Testbed tb(loop);
    run_udp1(obs, tb, true);
    const auto& records = tb.slot(0).wan_tap.records();
    ASSERT_TRUE(tb.slot(0).wan_tap.attached());
    ASSERT_FALSE(records.empty());
    std::size_t lost = 0;
    for (const auto& ev : rec.snapshot()) {
        if (ev.category != "link" || ev.name != "impair.lost") continue;
        ++lost;
        ASSERT_GE(ev.frame, 0);
        ASSERT_LT(ev.frame, static_cast<std::int64_t>(records.size()));
    }
    EXPECT_GT(lost, 0u);
}
