// Observability layer: registry semantics, JSON/CSV snapshots, the
// streaming JSON writer + parser, trace events, the flight recorder's
// ring/dump behavior, and an end-to-end campaign with metrics and tracing
// attached (which must also leave the measured physics untouched).
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "harness/testrund.hpp"
#include "obs/obs.hpp"
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
