// Minimal JSON support for the report sidecars (metrics snapshots, trace
// and time-series JSONL lines, the campaign journal). A streaming writer
// with automatic comma placement — no DOM, no allocation beyond the output
// stream — plus json_parse, the one JSON reader: every sidecar validator
// and reader parses through it.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gatekit::report {

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// added). Control characters become \u00XX.
std::string json_escape(std::string_view s);

/// Shortest round-trip decimal for a double. Non-finite values (which
/// JSON cannot represent) are clamped to null-like "0".
std::string json_double(double v);

/// Streaming JSON writer: explicit begin/end calls, commas inserted
/// automatically. The caller is responsible for well-formed nesting
/// (every begin_* matched by the corresponding end_*, key() before each
/// object member value).
class JsonWriter {
public:
    explicit JsonWriter(std::ostream& out) : out_(out) {}

    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();
    JsonWriter& key(std::string_view k);
    JsonWriter& value(std::string_view s);
    JsonWriter& value(const char* s) { return value(std::string_view(s)); }
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(double v);
    JsonWriter& value(bool v);
    /// Splice pre-rendered JSON verbatim as one value (comma placement
    /// still automatic). The caller guarantees `json` is well-formed.
    JsonWriter& raw(std::string_view json);

private:
    void pre_value();

    std::ostream& out_;
    std::vector<bool> has_item_; ///< per nesting level: wrote an item yet?
    bool after_key_ = false;
};

/// Parsed JSON value (DOM). Object member order is preserved, so a
/// document written by JsonWriter, parsed, and re-written member-by-
/// member round-trips byte-identically — the property bench_gate's
/// trajectory rewrite depends on. Numbers remember whether their
/// source token was integral: `value(int64)` output re-serializes via
/// the integer path, `value(double)` output via json_double (shortest
/// round-trip, so parse + re-format is exact).
class JsonValue {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::int64_t integer = 0;
    bool is_integer = false; ///< source token had no '.', 'e', or 'E'
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> members;

    /// Object member lookup; nullptr when absent or not an object.
    const JsonValue* find(std::string_view key) const;

    // Typed accessors with defaults (wrong-type reads, and as_int of a
    // number outside int64's range, yield the default).
    bool as_bool(bool def = false) const;
    double as_double(double def = 0.0) const;
    std::int64_t as_int(std::int64_t def = 0) const;
    const std::string& as_string() const; ///< empty string when not a String
};

/// Full parse of exactly one JSON document (plus surrounding whitespace).
/// Returns nullopt on malformed input, with a byte-offset description in
/// `error` when non-null.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

/// Re-serialize a parsed value member-by-member through JsonWriter.
/// Because the DOM preserves member order and integer-ness, a document
/// produced by JsonWriter round-trips byte-identically — what lets
/// bench_gate append to results/BENCH_trajectory.json without touching
/// the entries already there.
std::string json_serialize(const JsonValue& v);

} // namespace gatekit::report
