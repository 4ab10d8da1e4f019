#include "report/journal.hpp"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "report/json.hpp"

namespace gatekit::report {

std::string journal_header_line(const JournalHeader& header) {
    std::ostringstream out;
    JsonWriter jw(out);
    jw.begin_object();
    jw.key("schema").value(std::string_view(kJournalSchema));
    jw.key("fingerprint").value(std::string_view(header.fingerprint));
    jw.key("devices").begin_array();
    for (const auto& tag : header.devices) jw.value(std::string_view(tag));
    jw.end_array();
    jw.end_object();
    return out.str();
}

namespace {

bool known_status(std::string_view s) {
    return s == "ok" || s == "degraded" || s == "gave_up" ||
           s == "quarantined";
}

/// Empty when `v` is a valid header (decoded into `header`), else why not.
std::string decode_header(const JsonValue& v, JournalHeader& header) {
    const JsonValue* schema = v.find("schema");
    if (schema == nullptr) return "header lacks a schema tag";
    if (schema->as_string() != kJournalSchema)
        return "journal schema '" + schema->as_string() + "' is not " +
               kJournalSchema;
    const JsonValue* devices = v.find("devices");
    if (devices == nullptr || devices->type != JsonValue::Type::Array)
        return "header lacks devices array";
    if (const JsonValue* fp = v.find("fingerprint"))
        header.fingerprint = fp->as_string();
    for (const auto& d : devices->array)
        header.devices.push_back(d.as_string());
    return {};
}

/// Empty when `v` is a valid record for device `k` of `header`'s roster,
/// else why not.
std::string check_record(const JsonValue& v, std::size_t k,
                         const JournalHeader& header) {
    const JsonValue* device = v.find("device");
    const JsonValue* tag = v.find("tag");
    const JsonValue* result = v.find("result");
    if (device == nullptr || device->type != JsonValue::Type::Number ||
        tag == nullptr || result == nullptr ||
        result->type != JsonValue::Type::Object)
        return "record lacks device/tag/result";
    if (k >= header.devices.size()) return "more records than devices";
    if (device->as_int(-1) != static_cast<std::int64_t>(k))
        return "record for device " + std::to_string(device->as_int(-1)) +
               " where device " + std::to_string(k) +
               " is next (duplicate or out of order)";
    const std::string& expected = header.devices[k];
    if (tag->as_string() != expected)
        return "tag '" + tag->as_string() + "' does not match roster tag '" +
               expected + "'";
    const JsonValue* result_tag = result->find("tag");
    if (result_tag == nullptr || result_tag->as_string() != expected)
        return "result.tag does not match roster tag '" + expected + "'";
    if (const JsonValue* units = result->find("units"))
        for (const auto& u : units->array) {
            const JsonValue* status = u.find("status");
            if (status == nullptr || !known_status(status->as_string()))
                return "unknown unit status";
        }
    return {};
}

} // namespace

bool parse_journal(std::string_view text, Journal& journal,
                   std::string* error) {
    journal = Journal{};
    const std::size_t last_newline = text.rfind('\n');
    journal.kept_bytes =
        last_newline == std::string_view::npos ? 0 : last_newline + 1;
    std::size_t lineno = 0;
    for (std::size_t pos = 0; pos < journal.kept_bytes;) {
        const std::size_t end = text.find('\n', pos);
        const std::string_view line = text.substr(pos, end - pos);
        pos = end + 1;
        ++lineno;
        std::string why;
        if (const auto v = json_parse(line, &why)) {
            why = lineno == 1
                      ? decode_header(*v, journal.header)
                      : check_record(*v, journal.records.size(),
                                     journal.header);
        }
        if (!why.empty()) {
            if (error) *error = "line " + std::to_string(lineno) + ": " + why;
            return false;
        }
        if (lineno > 1) journal.records.push_back(line);
    }
    if (lineno == 0) {
        if (error) *error = "empty journal";
        return false;
    }
    return true;
}

bool validate_journal(std::string_view text, std::string* error) {
    Journal journal;
    return parse_journal(text, journal, error);
}

bool JournalWriter::open(const std::string& path, std::string_view prefix) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
        out.flush();
        if (!out.good()) return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) return false;
    out_.open(path, std::ios::binary | std::ios::app);
    return out_.good();
}

bool JournalWriter::append(int device, std::string_view tag,
                           std::string_view result_json) {
    JsonWriter jw(out_);
    jw.begin_object();
    jw.key("device").value(static_cast<std::int64_t>(device));
    jw.key("tag").value(tag);
    jw.key("result").raw(result_json);
    jw.end_object();
    out_ << '\n';
    out_.flush(); // durable before the result is handed out
    return out_.good();
}

} // namespace gatekit::report
