#include "obs/profile.hpp"

#include "report/json.hpp"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>

namespace gatekit::obs {

ProfileWriter::ProfileWriter(std::ostream& out, int workers, int devices)
    : out_(out) {
    report::JsonWriter w(out_);
    w.begin_object();
    w.key("schema").value("gatekit.profile.v1");
    w.key("workers").value(static_cast<std::int64_t>(workers));
    w.key("devices").value(static_cast<std::int64_t>(devices));
    w.end_object();
    out_ << '\n';
}

void ProfileWriter::write_shard(int shard, const std::string& device,
                                int worker, std::int64_t shard_wall_ns,
                                const std::vector<ProfileSpan>& spans) {
    for (const ProfileSpan& s : spans) {
        report::JsonWriter w(out_);
        w.begin_object();
        w.key("type").value("span");
        w.key("shard").value(static_cast<std::int64_t>(shard));
        w.key("device").value(s.device);
        w.key("unit").value(s.unit);
        w.key("status").value(s.status);
        w.key("attempts").value(static_cast<std::int64_t>(s.attempts));
        w.key("sim_start_ns").value(s.sim_start_ns);
        w.key("sim_end_ns").value(s.sim_end_ns);
        w.key("wall_ns").value(s.wall_ns);
        w.end_object();
        out_ << '\n';
    }
    report::JsonWriter w(out_);
    w.begin_object();
    w.key("type").value("shard");
    w.key("shard").value(static_cast<std::int64_t>(shard));
    w.key("device").value(device);
    w.key("worker").value(static_cast<std::int64_t>(worker));
    w.key("units").value(static_cast<std::uint64_t>(spans.size()));
    w.key("wall_ns").value(shard_wall_ns);
    w.end_object();
    out_ << '\n';
    ++shards_written_;
    shard_wall_total_ns_ += shard_wall_ns;
    if (slowest_device_.empty() || shard_wall_ns > shard_wall_max_ns_) {
        shard_wall_max_ns_ = shard_wall_ns;
        slowest_device_ = device;
    }
}

void ProfileWriter::write_summary(
    std::int64_t elapsed_wall_ns,
    const std::vector<std::int64_t>& worker_busy_ns) {
    const std::int64_t busy = std::accumulate(
        worker_busy_ns.begin(), worker_busy_ns.end(), std::int64_t{0});
    const double capacity =
        static_cast<double>(elapsed_wall_ns) *
        static_cast<double>(std::max<std::size_t>(worker_busy_ns.size(), 1));
    const double mean =
        shards_written_ > 0 ? static_cast<double>(shard_wall_total_ns_) /
                                  shards_written_
                            : 0.0;
    report::JsonWriter w(out_);
    w.begin_object();
    w.key("type").value("summary");
    w.key("elapsed_wall_ns").value(elapsed_wall_ns);
    w.key("worker_busy_ns").begin_array();
    for (const std::int64_t b : worker_busy_ns) w.value(b);
    w.end_array();
    w.key("utilization")
        .value(capacity > 0.0 ? static_cast<double>(busy) / capacity : 0.0);
    w.key("shard_wall_max_ns").value(shard_wall_max_ns_);
    w.key("shard_wall_mean_ns").value(mean);
    // Skew: slowest shard vs the mean. 1.0 = perfectly even; large
    // values mean one device dominates the campaign's critical path.
    w.key("skew").value(mean > 0.0
                            ? static_cast<double>(shard_wall_max_ns_) / mean
                            : 0.0);
    w.key("slowest_device").value(slowest_device_);
    w.end_object();
    out_ << '\n';
}

bool validate_profile(std::istream& in, std::string* error) {
    bool have_header = false;
    std::size_t line_no = 0;
    const auto fail = [&](const std::string& what) {
        if (error) *error = "line " + std::to_string(line_no) + ": " + what;
        return false;
    };
    for (std::string l; std::getline(in, l);) {
        ++line_no;
        if (l.empty()) continue;
        const auto doc = report::json_parse(l);
        if (!doc) return fail("invalid JSON");
        if (!have_header) {
            const auto* schema = doc->find("schema");
            if (schema == nullptr ||
                schema->as_string() != "gatekit.profile.v1")
                return fail("first line is not a gatekit.profile.v1 header");
            if (doc->find("workers") == nullptr ||
                doc->find("devices") == nullptr)
                return fail("header missing workers/devices");
            have_header = true;
            continue;
        }
        const auto* type = doc->find("type");
        if (type == nullptr) return fail("missing type");
        const std::string& t = type->as_string();
        auto need = [&](std::initializer_list<const char*> keys) {
            for (const char* k : keys)
                if (doc->find(k) == nullptr) return false;
            return true;
        };
        if (t == "span") {
            if (!need({"shard", "device", "unit", "status", "attempts",
                       "sim_start_ns", "sim_end_ns", "wall_ns"}))
                return fail("span missing fields");
        } else if (t == "shard") {
            if (!need({"shard", "device", "worker", "units", "wall_ns"}))
                return fail("shard missing fields");
        } else if (t == "summary") {
            if (!need({"elapsed_wall_ns", "worker_busy_ns", "utilization",
                       "shard_wall_max_ns", "skew"}))
                return fail("summary missing fields");
        } else {
            return fail("unknown type '" + t + "'");
        }
    }
    if (!have_header) {
        if (error) *error = "no profile header found";
        return false;
    }
    return true;
}

} // namespace gatekit::obs
