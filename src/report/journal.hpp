// Campaign journal (schema "gatekit.journal.v1"): a write-ahead JSONL
// log of completed (device, test) measurement units. Line 1 is a header
// binding the journal to one campaign (config fingerprint + device
// roster); each following line is one completed unit with its full
// result payload and the resume-state stamp (sim clock + allocator
// cursors) needed to replay the rest of the campaign byte-identically.
//
// The report layer stays harness-agnostic: units and statuses are
// strings here, payloads are opaque JSON. src/harness/results_io.*
// owns the mapping to the typed result structs.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "report/json.hpp"

namespace gatekit::report {

inline constexpr const char* kJournalSchema = "gatekit.journal.v1";

struct JournalHeader {
    std::string schema;
    std::string fingerprint; ///< campaign config hash, hex
    std::vector<std::string> devices; ///< profile tags, slot order
    /// Shard index when this journal is one shard's segment of a
    /// device-sharded campaign, -1 for a merged whole-campaign journal.
    /// The field is omitted from the header line when absent, so merged
    /// journals keep the pre-shard format.
    int shard = -1;
};

/// Allocator cursors captured at a unit boundary. Restoring them (plus
/// aligning the sim clock to `t_end`) is what makes a resumed campaign's
/// remaining units reproduce the uninterrupted run exactly: sequential
/// port pools and ephemeral-port counters are the only cross-unit state
/// the probes observe.
struct JournalStateStamp {
    std::uint64_t client_eph = 0; ///< test client's next ephemeral port
    std::uint64_t server_eph = 0; ///< test server's next ephemeral port
    std::uint64_t udp_pool = 0;   ///< device's UDP pool cursor
    std::uint64_t tcp_pool = 0;   ///< device's TCP pool cursor
    /// Exact state of one link-impairment RNG at the unit boundary, as
    /// the compact (seed, draw-count) pair util::Rng restores from.
    /// Without these a resumed impaired campaign re-seeds every
    /// impairer from scratch and diverges from the uninterrupted run at
    /// the first fate draw.
    struct RngStamp {
        int device = 0;    ///< global roster index of the link's device
        std::string link;  ///< "wan" | "lan"
        std::string dir;   ///< "a2b" | "b2a" (Link::Side A/B transmit)
        std::uint64_t seed = 0;
        std::uint64_t draws = 0;
    };
    /// One stamp per installed impairer, capture order (device, then
    /// wan/lan, then a2b/b2a). Empty for unimpaired campaigns, and the
    /// "rng" key is then omitted so lossless journals keep the
    /// pre-impairment byte format.
    std::vector<RngStamp> rng;
};

struct JournalEntry {
    int device = 0;      ///< global roster index of the device
    std::string tag;     ///< profile tag (cross-checked on resume)
    std::string unit;    ///< e.g. "udp1", "tcp2", "binding_rate"
    std::string status;  ///< "ok" | "degraded" | "gave_up" | "quarantined"
    int attempts = 1;
    std::string reason;  ///< machine-readable failure reason, "" when ok
    // Sim-clock bounds of the unit, integer nanoseconds: a resumed
    // campaign realigns its clock to the last entry's t_end exactly
    // (doubles in seconds would round and shift every later event).
    std::int64_t t_start_ns = 0;
    std::int64_t t_end_ns = 0;
    JournalStateStamp state;
    JsonValue payload;   ///< unit result, opaque to the report layer
};

/// Append-only journal writer. Every append is flushed before returning,
/// so a campaign killed at any instant loses at most the in-flight unit.
class JournalWriter {
public:
    /// Start a fresh journal (truncates) and write the header line.
    bool open_new(const std::string& path, const JournalHeader& header);

    /// Reopen an existing journal for appending (resumed campaign).
    bool open_append(const std::string& path);

    bool ok() const { return out_.is_open() && out_.good(); }

    /// Append one completed unit. `payload_json` is spliced verbatim as
    /// the entry's "payload" member.
    bool append(const JournalEntry& entry, std::string_view payload_json);

private:
    std::ofstream out_;
};

/// Canonical rendering of a journal header line (no trailing newline).
/// Shared by the journal writer and the shard scheduler's segment
/// carve/merge, so header bytes have exactly one authority.
std::string journal_header_line(const JournalHeader& header);

/// Decode a parsed header line; false (with a description in `error`
/// when non-null) on a missing/wrong schema tag or devices array.
bool decode_journal_header(const JsonValue& v, JournalHeader& header,
                           std::string* error = nullptr);

/// Journal reader: load + structural decode of header and entries.
class JournalReader {
public:
    /// Parse the journal at `path`. Returns false (with a description in
    /// `error` when non-null) on I/O failure or any malformed line.
    static bool load(const std::string& path, JournalHeader& header,
                     std::vector<JournalEntry>& entries,
                     std::string* error = nullptr);
};

/// Structural + schema validation of journal text: header line with the
/// v1 schema tag, every entry line carrying the required fields with a
/// known status, device indices within the roster, and units appearing
/// in non-decreasing device order. Used by the journal_smoke ctest.
bool validate_journal(std::string_view text, std::string* error = nullptr);

} // namespace gatekit::report
