// Harness self-profiler: wall-clock phase spans per (device, unit) and
// per-worker utilization for sharded campaigns, emitted as a JSONL
// sidecar (schema "gatekit.profile.v1"). This is the one artifact that
// deliberately records WALL time — it profiles the harness, not the
// simulation — so it is explicitly NOT byte-gated: two runs of the same
// campaign produce equal sim-time fields but different wall_ns.
// Profiling never alters sim behavior: the collector only stamps the
// host clock around work the runner was doing anyway.
//
// Stream layout (one JSON object per line):
//   {"schema":"gatekit.profile.v1","workers":W,"devices":N}     header
//   {"type":"span","shard":k,"device":"...","unit":"...",
//    "status":"ok","attempts":1,"sim_start_ns":...,
//    "sim_end_ns":...,"wall_ns":...}                one per (device,unit)
//   {"type":"shard","shard":k,"device":"...","worker":w,
//    "units":n,"wall_ns":...}                       one per shard
//   {"type":"summary","elapsed_wall_ns":...,
//    "worker_busy_ns":[...],"utilization":...,
//    "shard_wall_max_ns":...,"shard_wall_mean_ns":...,
//    "skew":...,"slowest_device":"..."}             once, at the end
// Span and shard lines appear in canonical device order (the scheduler
// writes them as its completion frontier advances), whatever the worker
// count.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gatekit::obs {

struct ProfileSpan {
    std::string device;
    std::string unit;
    std::string status; ///< "ok", "degraded", "gave_up", "quarantined"
    int attempts = 0;
    std::int64_t sim_start_ns = 0;
    std::int64_t sim_end_ns = 0;
    std::int64_t wall_ns = 0;
};

/// Per-runner span recorder. The campaign runner brackets each unit
/// with begin_unit()/end_unit(); everything between the two stamps —
/// event processing, probe logic, journal writes — is attributed to
/// that unit. Units replayed from a journal during resume are not
/// recorded (they cost no measurement work).
class ProfileCollector {
public:
    void begin_unit() { wall_start_ = std::chrono::steady_clock::now(); }

    void end_unit(std::string device, std::string unit, std::string status,
                  int attempts, std::int64_t sim_start_ns,
                  std::int64_t sim_end_ns) {
        const auto wall = std::chrono::steady_clock::now() - wall_start_;
        spans_.push_back(ProfileSpan{
            std::move(device), std::move(unit), std::move(status), attempts,
            sim_start_ns, sim_end_ns,
            std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
                .count()});
    }

    const std::vector<ProfileSpan>& spans() const { return spans_; }
    std::vector<ProfileSpan> take_spans() { return std::move(spans_); }

private:
    std::chrono::steady_clock::time_point wall_start_{};
    std::vector<ProfileSpan> spans_;
};

/// Streaming writer for the profile sidecar. The scheduler writes one
/// shard's spans as the completion frontier passes it (so memory stays
/// O(workers), not O(roster)) and the summary after the pool joins.
class ProfileWriter {
public:
    /// Writes the header line immediately.
    ProfileWriter(std::ostream& out, int workers, int devices);

    void write_shard(int shard, const std::string& device, int worker,
                     std::int64_t shard_wall_ns,
                     const std::vector<ProfileSpan>& spans);

    void write_summary(std::int64_t elapsed_wall_ns,
                       const std::vector<std::int64_t>& worker_busy_ns);

private:
    std::ostream& out_;
    std::int64_t shard_wall_max_ns_ = 0;
    std::int64_t shard_wall_total_ns_ = 0;
    int shards_written_ = 0;
    std::string slowest_device_;
};

/// Structural check for a profile sidecar: header first with the right
/// schema tag, every line valid JSON, span/shard/summary lines carry
/// their required fields. Reads one line at a time, so memory stays
/// O(longest line) however large the sidecar. Pass an std::ifstream for
/// a sidecar file or an std::istringstream for a stream in memory.
bool validate_profile(std::istream& in, std::string* error = nullptr);

} // namespace gatekit::obs
