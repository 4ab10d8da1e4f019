// Campaign journal (schema "gatekit.journal.v2"): a JSONL log of the
// devices a campaign has finished. Line 1 is a header binding the
// journal to one campaign (config fingerprint + device roster); each
// following line is one finished device, in roster order:
//
//   {"device":k,"tag":"<roster tag k>","result":<device results>}
//
// A device's results are a pure function of (profile, config, global
// device number), so a resumed campaign takes every recorded device's
// results from its record and reruns every other device from bring-up.
//
// The report layer stays harness-agnostic: a record's result is opaque
// JSON here apart from its "tag" and the status strings of its "units".
// src/harness/results_io.* owns the mapping to the typed result structs.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace gatekit::report {

inline constexpr const char* kJournalSchema = "gatekit.journal.v2";

struct JournalHeader {
    std::string fingerprint; ///< campaign config hash, hex
    std::vector<std::string> devices; ///< profile tags, roster order
};

/// Canonical rendering of a journal header line (no trailing newline).
std::string journal_header_line(const JournalHeader& header);

/// A parsed journal. Record k is device k's line: the records are
/// exactly the devices 0..records.size()-1, in order.
struct Journal {
    JournalHeader header;
    std::vector<std::string_view> records; ///< views into the parsed text
    /// Length of the text's prefix the journal keeps: every whole line.
    /// Bytes after the last newline are a torn final line — a kill
    /// mid-append — and are dropped.
    std::size_t kept_bytes = 0;
};

/// The one journal reader, used by resume and validate_journal. Drops a
/// torn final line (bytes after the last newline); refuses anything else
/// malformed, with a line-numbered description in `error` when non-null:
/// an empty journal, a header of another schema (named in the message)
/// or without a devices array, a record that is not JSON or lacks its
/// device/tag/result, a record for any device but the next one (a
/// duplicate, a gap or a regression), a tag or result.tag that differs
/// from the roster, and an unknown unit status.
bool parse_journal(std::string_view text, Journal& journal,
                   std::string* error = nullptr);

/// parse_journal without keeping the result. Used by the journal_smoke
/// ctest.
bool validate_journal(std::string_view text, std::string* error = nullptr);

/// Append-only journal writer. Every append is flushed before returning,
/// so a campaign killed at any instant loses at most the devices that
/// had not reached the completion frontier.
class JournalWriter {
public:
    /// Make `prefix` — a header line plus newline, or the whole-line
    /// prefix parse_journal kept — the journal at `path`, then open it
    /// for appending. The prefix is written to "<path>.tmp" and renamed
    /// over `path`, so a kill at any instant leaves either the old
    /// journal or the new one. False on any I/O failure.
    bool open(const std::string& path, std::string_view prefix);

    /// Append device `device`'s record; `result_json` is spliced
    /// verbatim as its "result" member. False on a write failure.
    bool append(int device, std::string_view tag,
                std::string_view result_json);

private:
    std::ofstream out_;
};

} // namespace gatekit::report
