// Sim-time event tracing: a Tracer fans events out to TraceSinks. Two
// sinks ship with the testbed — a bounded ring-buffer FlightRecorder that
// dumps the last N events when something goes wrong (probe retry/giveup,
// injected gateway fault), and a streaming JSONL sink for full traces.
//
// Events are pure observations: emitting one never schedules work on the
// event loop, draws randomness, or otherwise perturbs virtual time, so a
// traced run produces byte-identical figure output to an untraced one.
#pragma once

#include "sim/event_loop.hpp"
#include "sim/time.hpp"

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace gatekit::obs {

/// One traced occurrence. `frame` cross-references the pcap capture: the
/// index of the most recent frame recorded by the device's CaptureTap at
/// the moment the event fired, or -1 when no capture is attached.
struct TraceEvent {
    struct Field {
        std::string key;
        bool is_text = false;
        std::int64_t num = 0;
        std::string text;
    };

    sim::TimePoint t{};
    std::string device;
    std::string category;
    std::string name;
    std::int64_t frame = -1;
    std::vector<Field> fields;

    TraceEvent& with(std::string_view key, std::int64_t v) {
        fields.push_back({std::string(key), false, v, {}});
        return *this;
    }
    TraceEvent& with(std::string_view key, std::string_view v) {
        fields.push_back({std::string(key), true, 0, std::string(v)});
        return *this;
    }

    /// One JSONL line (no trailing newline).
    std::string to_jsonl() const;
};

class TraceSink {
public:
    virtual ~TraceSink() = default;
    virtual void on_event(const TraceEvent& ev) = 0;
    /// A trigger fired (probe retry/giveup, gateway fault): flush or dump
    /// whatever context the sink has been holding.
    virtual void on_trigger(std::string_view reason) { (void)reason; }
};

/// Bounded ring buffer over the last `capacity` events; on_trigger dumps
/// the buffered window. Dumps go to `dump_path_base.<n>.jsonl` when a
/// dump path is set (capped at max_dumps files per run), and can also be
/// written to any ostream explicitly.
class FlightRecorder : public TraceSink {
public:
    explicit FlightRecorder(std::size_t capacity = 256);

    void on_event(const TraceEvent& ev) override;
    void on_trigger(std::string_view reason) override;

    /// Buffered events, oldest first.
    std::vector<TraceEvent> snapshot() const;
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }
    std::uint64_t dumps_written() const { return dumps_written_; }

    /// Enable automatic dumps: trigger n writes `<base>.<n>.jsonl`.
    void set_dump_path(std::string base, std::uint64_t max_dumps = 16);

    /// Write the buffered window as JSONL, preceded by a trigger header
    /// line. Returns the number of event lines written.
    std::size_t dump(std::ostream& out, std::string_view reason) const;

private:
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0; ///< next write slot
    std::size_t size_ = 0;
    std::string dump_base_;
    std::uint64_t max_dumps_ = 0;
    std::uint64_t dumps_written_ = 0;
};

/// Streams every event as one JSONL line to an external ostream.
class JsonlSink : public TraceSink {
public:
    explicit JsonlSink(std::ostream& out) : out_(out) {}

    void on_event(const TraceEvent& ev) override;
    void on_trigger(std::string_view reason) override;

private:
    std::ostream& out_;
};

/// Front door for instrumented components: stamps events with the loop's
/// current virtual time and fans them out to the attached sinks. A Tracer
/// with no sinks is "disabled" — callers check enabled() first so the
/// disabled path never constructs an event.
class Tracer {
public:
    explicit Tracer(sim::EventLoop& loop) : loop_(loop) {}

    void add_sink(TraceSink* sink) {
        if (sink) sinks_.push_back(sink);
    }
    bool enabled() const { return !sinks_.empty(); }

    /// New event stamped with now(); fill fields, then emit().
    TraceEvent event(std::string_view device, std::string_view category,
                     std::string_view name) const {
        TraceEvent ev;
        ev.t = loop_.now();
        ev.device = device;
        ev.category = category;
        ev.name = name;
        return ev;
    }

    void emit(const TraceEvent& ev) {
        for (TraceSink* s : sinks_) s->on_event(ev);
    }

    /// Record a trigger event, then fire every sink's on_trigger (the
    /// flight recorder dumps its window at this point).
    void trigger(std::string_view device, std::string_view reason);

private:
    sim::EventLoop& loop_;
    std::vector<TraceSink*> sinks_;
};

// Null-safe helper mirroring the metrics ones: true when tracing is live,
// so call sites read `if (trace_on(t)) { auto ev = t->event(...); ... }`.
inline bool trace_on(const Tracer* t) { return t && t->enabled(); }

} // namespace gatekit::obs
