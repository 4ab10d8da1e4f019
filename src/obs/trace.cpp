#include "obs/trace.hpp"

#include "report/json.hpp"

#include <fstream>
#include <sstream>

namespace gatekit::obs {

std::string TraceEvent::to_jsonl() const {
    std::ostringstream out;
    report::JsonWriter w(out);
    w.begin_object();
    w.key("t_ns").value(static_cast<std::int64_t>(t.count()));
    w.key("device").value(device);
    w.key("cat").value(category);
    w.key("event").value(name);
    if (frame >= 0) w.key("frame").value(frame);
    for (const auto& f : fields) {
        w.key(f.key);
        if (f.is_text)
            w.value(f.text);
        else
            w.value(f.num);
    }
    w.end_object();
    return out.str();
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity ? capacity : 1) {}

void FlightRecorder::on_event(const TraceEvent& ev) {
    ring_[head_] = ev;
    head_ = (head_ + 1) % ring_.size();
    if (size_ < ring_.size()) ++size_;
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

void FlightRecorder::set_dump_path(std::string base, std::uint64_t max_dumps) {
    dump_base_ = std::move(base);
    max_dumps_ = max_dumps;
}

std::size_t FlightRecorder::dump(std::ostream& out,
                                 std::string_view reason) const {
    {
        std::ostringstream hdr;
        report::JsonWriter w(hdr);
        w.begin_object();
        w.key("flight_dump").value(reason);
        w.key("events").value(static_cast<std::uint64_t>(size_));
        w.end_object();
        out << hdr.str() << '\n';
    }
    for (const TraceEvent& ev : snapshot()) out << ev.to_jsonl() << '\n';
    return size_;
}

void FlightRecorder::on_trigger(std::string_view reason) {
    if (dump_base_.empty() || dumps_written_ >= max_dumps_) return;
    std::string path =
        dump_base_ + "." + std::to_string(dumps_written_) + ".jsonl";
    std::ofstream out(path, std::ios::trunc);
    if (!out) return;
    dump(out, reason);
    ++dumps_written_;
}

void JsonlSink::on_event(const TraceEvent& ev) {
    out_ << ev.to_jsonl() << '\n';
}

void JsonlSink::on_trigger(std::string_view reason) {
    std::ostringstream line;
    report::JsonWriter w(line);
    w.begin_object();
    w.key("trigger").value(reason);
    w.end_object();
    out_ << line.str() << '\n';
    out_.flush();
}

void Tracer::trigger(std::string_view device, std::string_view reason) {
    if (!enabled()) return;
    TraceEvent ev = event(device, "obs", "trigger");
    ev.with("reason", reason);
    emit(ev);
    for (TraceSink* s : sinks_) s->on_trigger(reason);
}

} // namespace gatekit::obs
