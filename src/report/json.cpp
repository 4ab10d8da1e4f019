#include "report/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace gatekit::report {

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string json_double(double v) {
    if (!std::isfinite(v)) return "0";
    std::array<char, 32> buf{};
    auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
    if (ec != std::errc{}) return "0";
    std::string out(buf.data(), ptr);
    // Bare integers are valid JSON numbers, but keep them recognizably
    // floating-point so downstream readers don't flip types run-to-run.
    if (out.find_first_of(".eE") == std::string::npos) out += ".0";
    return out;
}

void JsonWriter::pre_value() {
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!has_item_.empty()) {
        if (has_item_.back()) out_ << ',';
        has_item_.back() = true;
    }
}

JsonWriter& JsonWriter::begin_object() {
    pre_value();
    out_ << '{';
    has_item_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::end_object() {
    has_item_.pop_back();
    out_ << '}';
    return *this;
}

JsonWriter& JsonWriter::begin_array() {
    pre_value();
    out_ << '[';
    has_item_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::end_array() {
    has_item_.pop_back();
    out_ << ']';
    return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
    if (!has_item_.empty()) {
        if (has_item_.back()) out_ << ',';
        has_item_.back() = true;
    }
    out_ << '"' << json_escape(k) << "\":";
    after_key_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
    pre_value();
    out_ << '"' << json_escape(s) << '"';
    return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
    pre_value();
    out_ << v;
    return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
    pre_value();
    out_ << v;
    return *this;
}

JsonWriter& JsonWriter::value(double v) {
    pre_value();
    out_ << json_double(v);
    return *this;
}

JsonWriter& JsonWriter::value(bool v) {
    pre_value();
    out_ << (v ? "true" : "false");
    return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
    pre_value();
    out_ << json;
    return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
    if (type != Type::Object) return nullptr;
    for (const auto& [k, v] : members)
        if (k == key) return &v;
    return nullptr;
}

bool JsonValue::as_bool(bool def) const {
    return type == Type::Bool ? boolean : def;
}

double JsonValue::as_double(double def) const {
    if (type != Type::Number) return def;
    return is_integer ? static_cast<double>(integer) : number;
}

std::int64_t JsonValue::as_int(std::int64_t def) const {
    if (type != Type::Number) return def;
    if (is_integer) return integer;
    // Converting a double outside int64's range is undefined behaviour.
    if (!(number >= -0x1p63 && number < 0x1p63)) return def;
    return static_cast<std::int64_t>(number);
}

const std::string& JsonValue::as_string() const {
    static const std::string kEmpty;
    return type == Type::String ? str : kEmpty;
}

namespace {

/// Recursive-descent parser building a JsonValue: the one JSON grammar
/// every sidecar reader goes through.
class Parser {
public:
    Parser(std::string_view text, std::string* error)
        : text_(text), error_(error) {}

    std::optional<JsonValue> run() {
        skip_ws();
        JsonValue v;
        if (!value(v)) return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing data");
            return std::nullopt;
        }
        return v;
    }

private:
    bool fail(const char* what) {
        if (error_) {
            *error_ = what;
            *error_ += " at byte ";
            *error_ += std::to_string(pos_);
        }
        return false;
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool eof() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    bool literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    static void append_utf8(std::string& out, std::uint32_t cp) {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool hex4(std::uint32_t& out) {
        out = 0;
        for (int i = 0; i < 4; ++i) {
            if (eof() ||
                !std::isxdigit(static_cast<unsigned char>(peek())))
                return fail("bad \\u escape");
            const char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<std::uint32_t>(c - '0');
            else
                out |= static_cast<std::uint32_t>(
                    10 + (std::tolower(static_cast<unsigned char>(c)) - 'a'));
        }
        return true;
    }

    bool string(std::string& out) {
        ++pos_; // opening quote
        out.clear();
        while (!eof()) {
            unsigned char c = static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (eof()) return fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    std::uint32_t cp = 0;
                    if (!hex4(cp)) return false;
                    // Surrogate pair: combine when a low surrogate follows.
                    // Any other escape is left for the next iteration.
                    if (cp >= 0xd800 && cp <= 0xdbff &&
                        text_.substr(pos_, 2) == "\\u") {
                        const std::size_t next = pos_;
                        pos_ += 2;
                        std::uint32_t lo = 0;
                        if (!hex4(lo)) return false;
                        if (lo >= 0xdc00 && lo <= 0xdfff)
                            cp = 0x10000 + ((cp - 0xd800) << 10) +
                                 (lo - 0xdc00);
                        else
                            pos_ = next;
                    }
                    append_utf8(out, cp);
                    break;
                }
                default: return fail("bad escape");
                }
                continue;
            }
            if (c < 0x20) return fail("control char in string");
            out += static_cast<char>(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool number(JsonValue& v) {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
            return fail("bad number");
        // A leading 0 is the whole integer part (RFC 8259 section 6).
        if (peek() == '0') {
            ++pos_;
        } else {
            while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        bool integral = true;
        if (!eof() && peek() == '.') {
            integral = false;
            ++pos_;
            if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
                return fail("bad fraction");
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            integral = false;
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
            if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
                return fail("bad exponent");
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        const std::string_view tok = text_.substr(start, pos_ - start);
        v.type = JsonValue::Type::Number;
        v.is_integer = integral;
        if (integral) {
            auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(),
                                           v.integer);
            if (ec != std::errc{} || p != tok.data() + tok.size()) {
                // Out-of-range integer token: keep the double view only.
                v.is_integer = false;
            }
        }
        {
            // from_chars<double> is the exact inverse of the shortest-
            // round-trip to_chars used by json_double.
            auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(),
                                           v.number);
            if (ec != std::errc{}) return fail("unparseable number");
            (void)p;
        }
        if (v.is_integer) v.number = static_cast<double>(v.integer);
        return true;
    }

    bool object(JsonValue& v) {
        ++pos_; // '{'
        if (++depth_ > kMaxDepth) return fail("nesting too deep");
        v.type = JsonValue::Type::Object;
        skip_ws();
        if (!eof() && peek() == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skip_ws();
            if (eof() || peek() != '"') return fail("expected object key");
            std::string key;
            if (!string(key)) return false;
            skip_ws();
            if (eof() || peek() != ':') return fail("expected ':'");
            ++pos_;
            skip_ws();
            JsonValue member;
            if (!value(member)) return false;
            v.members.emplace_back(std::move(key), std::move(member));
            skip_ws();
            if (eof()) return fail("unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool array(JsonValue& v) {
        ++pos_; // '['
        if (++depth_ > kMaxDepth) return fail("nesting too deep");
        v.type = JsonValue::Type::Array;
        skip_ws();
        if (!eof() && peek() == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skip_ws();
            JsonValue item;
            if (!value(item)) return false;
            v.array.push_back(std::move(item));
            skip_ws();
            if (eof()) return fail("unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool value(JsonValue& v) {
        if (eof()) return fail("expected value");
        switch (peek()) {
        case '{': return object(v);
        case '[': return array(v);
        case '"':
            v.type = JsonValue::Type::String;
            return string(v.str);
        case 't':
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return literal("true");
        case 'f':
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            return literal("false");
        case 'n':
            v.type = JsonValue::Type::Null;
            return literal("null");
        default: return number(v);
        }
    }

    static constexpr int kMaxDepth = 64;

    std::string_view text_;
    std::string* error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
    return Parser(text, error).run();
}

namespace {

void write_value(JsonWriter& jw, const JsonValue& v) {
    switch (v.type) {
    case JsonValue::Type::Null: jw.raw("null"); break;
    case JsonValue::Type::Bool: jw.value(v.boolean); break;
    case JsonValue::Type::Number:
        if (v.is_integer)
            jw.value(v.integer);
        else
            jw.value(v.number);
        break;
    case JsonValue::Type::String: jw.value(std::string_view(v.str)); break;
    case JsonValue::Type::Array:
        jw.begin_array();
        for (const auto& e : v.array) write_value(jw, e);
        jw.end_array();
        break;
    case JsonValue::Type::Object:
        jw.begin_object();
        for (const auto& [k, e] : v.members) {
            jw.key(k);
            write_value(jw, e);
        }
        jw.end_object();
        break;
    }
}

} // namespace

std::string json_serialize(const JsonValue& v) {
    std::ostringstream out;
    JsonWriter jw(out);
    write_value(jw, v);
    return out.str();
}

} // namespace gatekit::report
